"""Dense float64 tensors with reverse-mode automatic differentiation.

Every value flowing through the prediction network is a `Tensor` wrapping a
contiguous float64 numpy array. Each operation records a tape node holding
its parents and one vector-Jacobian product (VJP) per parent, which maps the
output's gradient to that parent's share. A VJP may keep input and output
arrays but never the output tensor, so the tape has no reference cycles and a
forward pass that is never backpropagated is freed as soon as its outputs are
dropped. `Tensor.backward()` is the one place that routes gradients: it walks
the tape once in reverse topological order, accumulates gradients into every
`requires_grad` node it can reach, and then frees the graph. `linear`,
`layer_norm` and `windows` are fused ops, one node each where the composed
ops would record several. Complex quantities (frequency spectra) are carried
as a `ComplexTensor` pair of real tensors so the tape itself stays real-valued.

Larger fusions, such as `attention.selective_attention`, run the ops' array
math directly: the forward and VJP helpers of matmul, linear, softmax,
sigmoid and layer norm (`_matmul_data`, `_softmax_vjp`, ...) are shared by
the tape ops and the fused nodes, so each op's arithmetic is written once
and a fused node keeps its ops' bits. Such a node computes all of its
parents' gradients in one backward function, recorded by `_joint_node`: the
function runs once, when `backward` asks for the first parent's share, and
each parent's VJP hands out its own entry of the result, so `backward` stays
the one place that routes gradients. The node's closure keeps the arrays its
backward reads; `selective_attention` also holds the rest of what its
forward allocates (see that module).

Broadcasting follows numpy's trailing-dimension alignment. Anything fancier
has to be an explicit reshape/broadcast_to at the call site. Shape errors come
from numpy's own check: `+ - * /` call the ufunc directly and re-word its
ValueError as "{op}: shapes {a} and {b} do not broadcast", so no op computes
a broadcast shape ahead of numpy.

What a node costs: on desk-scale shapes the fixed Python and numpy call cost
of a node outweighs its arithmetic. Building a `[1, 32]` add or multiply node
takes about 2.6 us (2 vCPUs, Python 3.11, numpy 2.4.6), and a desk scene's
forward pass of 110 nodes takes a few ms. So an op does no shape or copy
work that numpy or its result does not need.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

Array = np.ndarray
LAYER_NORM_EPS = 1e-5     # added to the variance in `layer_norm`


def _contiguous(a: Array) -> Array:
    # ascontiguousarray would promote 0-d arrays to 1-d; keep scalars 0-d
    if a.ndim == 0 or a.flags["C_CONTIGUOUS"]:
        return a
    return np.ascontiguousarray(a)


def _as_array(data) -> Array:
    return _contiguous(np.asarray(data, dtype=np.float64))


def _broadcast_error(op: str, sa: tuple, sb: tuple) -> ValueError:
    return ValueError(f"{op}: shapes {sa} and {sb} do not broadcast")


def _elementwise(ufunc: np.ufunc, a: "Tensor", b: "Tensor", op: str) -> Array:
    """`ufunc(a.data, b.data)`; numpy's own broadcast check names the op and shapes."""
    try:
        return ufunc(a.data, b.data)
    except ValueError:
        raise _broadcast_error(op, a.shape, b.shape) from None


def _unbroadcast(grad: Array, shape: tuple) -> Array:
    """Sum a gradient back down to `shape` after numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _sorted_sum_last(a: Array) -> Array:
    """Sum over the last axis in ascending order of the summands.

    Sorting first fixes the order in which the values are added, so the
    result does not depend on the order they arrive in. It is not correctly
    rounded, and an inf - inf or an overflow gives nan or inf, not an error.

    `a` is sorted in place, so callers pass an array they own. It must be
    C-contiguous: numpy sums a contiguous last axis pairwise but a strided
    one term by term, so the memory layout would change the rounding.
    """
    if not a.flags["C_CONTIGUOUS"]:
        raise ValueError("_sorted_sum_last: array must be C-contiguous")
    a.sort(axis=-1)
    return a.sum(axis=-1)


class Tensor:
    """A float64 array plus an optional slot on the gradient tape."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjps")

    def __init__(self, data, requires_grad: bool = False):
        self.data: Array = _as_array(data)
        self.grad: Array | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._vjps: tuple[Callable[[Array], Array], ...] = ()

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _from_op(data: Array, parents: tuple["Tensor", ...],
                 vjps: tuple[Callable[[Array], Array], ...]) -> "Tensor":
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        for p in parents:
            if p.requires_grad:
                out.requires_grad = True
                out._parents = parents
                out._vjps = vjps
                return out
        out.requires_grad = False
        out._parents = ()
        out._vjps = ()
        return out

    # -- basic introspection --------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else self._not_scalar()

    def _not_scalar(self):
        raise ValueError(f"item() requires a scalar tensor, got shape {self.shape}")

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def zero_grad(self) -> None:
        self.grad = None

    def _accum(self, g: Array) -> None:
        # A first gradient is copied, never kept: `g` may be an array a VJP
        # also closes over. Adding 0.0 gives the bits of `zeros + g` (a -0.0
        # lands as +0.0) in `zeros`' C layout.
        if self.grad is None:
            self.grad = np.add(g, 0.0, order="C")
        else:
            self.grad += g

    # -- reverse pass ----------------------------------------------------------

    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into every reachable requires_grad leaf.

        `self` must be a scalar. Repeated calls (on fresh forward graphs)
        accumulate additively; the graph walked here is freed afterwards.
        """
        if self.data.size != 1:
            raise ValueError(f"backward requires a scalar loss, got shape {self.shape}")
        if not self.requires_grad:
            return

        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))

        self._accum(np.ones_like(self.data))
        for node in reversed(topo):
            g = node.grad
            for p, vjp in zip(node._parents, node._vjps):
                if p.requires_grad:
                    p._accum(vjp(g))
            node._vjps = ()
            node._parents = ()

    # -- elementwise arithmetic -------------------------------------------------

    def __add__(self, other) -> "Tensor":
        a, b = self, other if isinstance(other, Tensor) else Tensor(other)
        return _node(_elementwise(np.add, a, b, "add"), (a, b),
                     lambda g: _unbroadcast(g, a.shape),
                     lambda g: _unbroadcast(g, b.shape))

    def __sub__(self, other) -> "Tensor":
        a, b = self, other if isinstance(other, Tensor) else Tensor(other)
        return _node(_elementwise(np.subtract, a, b, "sub"), (a, b),
                     lambda g: _unbroadcast(g, a.shape),
                     lambda g: _unbroadcast(-g, b.shape))

    def __mul__(self, other) -> "Tensor":
        a, b = self, other if isinstance(other, Tensor) else Tensor(other)
        return _node(_elementwise(np.multiply, a, b, "mul"), (a, b),
                     lambda g: _unbroadcast(g * b.data, a.shape),
                     lambda g: _unbroadcast(g * a.data, b.shape))

    def __truediv__(self, other) -> "Tensor":
        a, b = self, other if isinstance(other, Tensor) else Tensor(other)
        out_data = _elementwise(np.true_divide, a, b, "div")
        return _node(out_data, (a, b),
                     lambda g: _unbroadcast(g / b.data, a.shape),
                     lambda g: _unbroadcast(-g * out_data / b.data, b.shape))

    def __neg__(self) -> "Tensor":
        return _node(-self.data, (self,), lambda g: -g)

    def __rsub__(self, other) -> "Tensor":
        return Tensor(other) - self

    def __rtruediv__(self, other) -> "Tensor":
        return Tensor(other) / self

    # -- shape manipulation --------------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        try:
            out_data = self.data.reshape(shape)
        except ValueError:
            raise ValueError(f"reshape: cannot view shape {self.shape} as {shape}") from None
        in_shape = self.shape
        return _node(_contiguous(np.asarray(out_data)), (self,),
                     lambda g: g.reshape(in_shape))

    def transpose(self, *axes) -> "Tensor":
        if sorted(axes) != list(range(self.ndim)):
            raise ValueError(f"transpose: axes {axes} are not a permutation for shape {self.shape}")
        inv = [0] * len(axes)
        for i, ax in enumerate(axes):
            inv[ax] = i
        return _node(_contiguous(self.data.transpose(axes)), (self,),
                     lambda g: g.transpose(inv))

    def __getitem__(self, key) -> "Tensor":
        a = self.data
        return _node(_contiguous(np.asarray(a[key])), (self,), lambda g: _scatter(a, key, g))

    # -- reductions -------------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        in_shape = self.shape
        return _node(np.asarray(self.data.sum(axis=axis, keepdims=keepdims)), (self,),
                     lambda g: np.broadcast_to(_unreduce(g, axis, keepdims), in_shape).copy())

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        in_shape = self.shape
        count = self.data.size if axis is None else math.prod(
            [in_shape[ax] for ax in (axis if isinstance(axis, tuple) else (axis,))])
        # sum / count is what np.mean computes, bit for bit, without its wrapper
        return _node(np.asarray(self.data.sum(axis=axis, keepdims=keepdims) / count), (self,),
                     lambda g: np.broadcast_to(_unreduce(g, axis, keepdims), in_shape) / count)

    # -- elementwise nonlinearities ------------------------------------------------

    def relu(self) -> "Tensor":
        d = self.data
        return _node(np.maximum(d, 0.0), (self,), lambda g: g * (d > 0.0))

    def square(self) -> "Tensor":
        d = self.data
        return _node(d * d, (self,), lambda g: g * 2.0 * d)

    def sqrt(self) -> "Tensor":
        out_data = np.sqrt(self.data)
        return _node(out_data, (self,), lambda g: g * 0.5 / out_data)

    def abs(self) -> "Tensor":
        d = self.data
        return _node(np.abs(d), (self,), lambda g: g * np.sign(d))

    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)
        return _node(out_data, (self,), lambda g: g * out_data)

    def log(self) -> "Tensor":
        d = self.data
        return _node(np.log(d), (self,), lambda g: g / d)

    def sigmoid(self) -> "Tensor":
        out_data = _sigmoid_data(self.data)
        return _node(out_data, (self,), lambda g: _sigmoid_vjp(out_data, g))


def _node(data: Array, parents: tuple[Tensor, ...],
          *vjps: Callable[[Array], Array]) -> Tensor:
    """A tape node; `vjps[i]` maps the output's gradient to parent i's share.

    A VJP may close over input and output arrays, never over the output
    tensor, so the tape holds no reference cycles.
    """
    return Tensor._from_op(data, parents, vjps)


def _joint_node(data: Array, parents: tuple[Tensor, ...],
                joint_vjp: Callable[[Array], Sequence[Array]]) -> Tensor:
    """A tape node whose parents' gradients come out of one backward computation.

    `joint_vjp(g)` returns one gradient per parent. It runs once, when
    `Tensor.backward` asks for the first parent's share, and each parent's
    VJP hands out its own entry, so `backward` routes them like any others.
    """
    grads: list[Array] = []

    def share(g: Array, i: int) -> Array:
        if not grads:
            grads.extend(joint_vjp(g))
        return grads[i]
    return _node(data, parents, *(lambda g, i=i: share(g, i) for i in range(len(parents))))


def _unreduce(g: Array, axis, keepdims: bool) -> Array:
    """Restore the axes a reduction dropped, so `g` broadcasts to its input."""
    return g if axis is None or keepdims else np.expand_dims(g, axis)


def _scatter(a: Array, key, g: Array) -> Array:
    """`g` added into zeros shaped like `a` at `key`: the VJP of `a[key]`."""
    full = np.zeros_like(a)
    keys = key if isinstance(key, tuple) else (key,)
    if any(isinstance(k, (list, np.ndarray)) for k in keys):
        np.add.at(full, key, g)
    else:
        full[key] += g
    return full


# -- free functions (ops that read better without method chaining) -----------------


def matmul(a: Tensor, b: Tensor, exact_sum: bool = False) -> Tensor:
    """Batched matrix product over the last two axes.

    Leading axes broadcast numpy-style. An output row does not depend, bit
    for bit, on where its row of `a` sits: BLAS gemm rounds rows alike, gemv
    does not, so a one-column `b` is summed by numpy over the C-ordered
    product, which adds every row in the same order. numpy also runs a
    one-row `a` as gemv, so no product of a single row shares gemm's
    rounding: a caller that needs one row rounded as in a taller product
    passes two rows and drops one (tsam's summary-only mode). With
    `exact_sum`, each contraction is a sorted sum, independent of summand
    order (used for sums over a permutable axis).
    """
    a = a if isinstance(a, Tensor) else Tensor(a)
    b = b if isinstance(b, Tensor) else Tensor(b)
    return _node(_matmul_data(a.data, b.data, exact_sum), (a, b),
                 *_matmul_vjps(a.data, b.data))


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """`matmul(x, w) + b` as one tape node, with `matmul`'s product."""
    return _node(_linear_data(x.data, w.data, b.data), (x, w, b),
                 *_linear_vjps(x.data, w.data, b.shape))


# The array math of matmul, linear, softmax, sigmoid and layer_norm, forward
# and VJPs, shared by their tape ops and by fused nodes such as
# `attention.selective_attention`, so each op's arithmetic is written once.


def _matmul_data(a: Array, b: Array, exact_sum: bool) -> Array:
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError(f"matmul: operands must have ndim >= 2, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ValueError(f"matmul: inner dimensions mismatch, {a.shape} vs {b.shape}")
    if a.ndim > 2 and b.ndim > 2 and a.shape[:-2] != b.shape[:-2]:
        try:
            np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
        except ValueError:
            raise _broadcast_error("matmul (leading axes)", a.shape[:-2], b.shape[:-2]) from None
    if exact_sum or b.shape[-1] == 1:
        prod = np.multiply(a[..., :, None, :],                     # [..., n, m, k]
                           np.swapaxes(b, -1, -2)[..., None, :, :], order="C")
        return _sorted_sum_last(prod) if exact_sum else prod.sum(axis=-1)
    return np.matmul(a, b)


def _matmul_vjps(a: Array, b: Array) -> tuple[Callable[[Array], Array], ...]:
    return (lambda g: _unbroadcast(np.matmul(g, np.swapaxes(b, -1, -2)), a.shape),
            lambda g: _unbroadcast(np.matmul(np.swapaxes(a, -1, -2), g), b.shape))


def _linear_data(x: Array, w: Array, b: Array) -> Array:
    out = _matmul_data(x, w, False)
    out += b
    return out


def _linear_vjps(x: Array, w: Array, b_shape: tuple) -> tuple[Callable[[Array], Array], ...]:
    return (*_matmul_vjps(x, w), lambda g: _unbroadcast(g, b_shape))


def _softmax_data(x: Array, exact_sum: bool) -> Array:
    """Row softmax over the last axis, max-subtracted; `exact_sum` sorts the denominator."""
    z = x - x.max(axis=-1, keepdims=True)
    e = np.exp(z)
    if exact_sum:
        denom = _sorted_sum_last(np.array(e, order="C"))[..., None]   # a sorted copy
    else:
        denom = e.sum(axis=-1, keepdims=True)
    return e / denom


def _softmax_vjp(out: Array, g: Array) -> Array:
    return out * (g - (g * out).sum(axis=-1, keepdims=True))


def _sigmoid_data(d: Array) -> Array:
    out = np.empty_like(d)
    pos = d >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    ex = np.exp(d[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _sigmoid_vjp(out: Array, g: Array) -> Array:
    return g * out * (1.0 - out)


def _layer_norm_data(x: Array, gain: Array, bias: Array) -> tuple[Array, Array, Array]:
    """`layer_norm`'s output, with the normalized input and the std its VJPs need."""
    n = x.shape[-1]     # every mean is sum / n: np.mean's bits without its wrapper
    centered = x - x.sum(axis=-1, keepdims=True) / n
    std = np.sqrt((centered * centered).sum(axis=-1, keepdims=True) / n + LAYER_NORM_EPS)
    xhat = centered / std
    return xhat * gain + bias, xhat, std


def _layer_norm_vjps(xhat: Array, std: Array, gain: Array,
                     bias_shape: tuple) -> tuple[Callable[[Array], Array], ...]:
    n = xhat.shape[-1]

    def vjp_x(g: Array) -> Array:
        g = g * gain
        return (g - g.sum(axis=-1, keepdims=True) / n
                - xhat * (g * xhat).sum(axis=-1, keepdims=True) / n) / std

    return (vjp_x, lambda g: _unbroadcast(g * xhat, gain.shape),
            lambda g: _unbroadcast(g, bias_shape))


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate along an existing axis; the exact inverse of slicing."""
    if not tensors:
        raise ValueError("concat: empty tensor list")
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    offsets = np.cumsum([0] + [t.shape[axis] for t in tensors])
    idx = [slice(None)] * out_data.ndim
    vjps = []
    for lo, hi in zip(offsets[:-1], offsets[1:]):
        idx[axis] = slice(int(lo), int(hi))
        vjps.append(lambda g, key=tuple(idx): g[key])
    return _node(out_data, tuple(tensors), *vjps)


def windows(x: Tensor, starts: Sequence[int], size: int) -> Tensor:
    """Flattened windows `x[:, s:s + size, :]`, one per start: [B, T, C] -> [B, P, size*C].

    One gather and one node, which lists `x` once per window: the backward adds
    each window's gradient into `x.grad` in window order, as slicing each would.
    """
    B, _, C = x.shape
    steps = np.add.outer(starts, np.arange(size)).reshape(-1)
    out_data = np.take(x.data, steps, axis=1).reshape(B, len(starts), size * C)
    return _node(out_data, (x,) * len(starts),
                 *(lambda g, j=j, s=s: _scatter(x.data, np.s_[:, s:s + size],
                                                g[:, j].reshape(B, size, C))
                   for j, s in enumerate(starts)))


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    ts = [t.reshape(t.shape[:axis] + (1,) + t.shape[axis:]) for t in tensors]
    return concat(ts, axis=axis)


def broadcast_to(x: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    try:
        out_data = np.broadcast_to(x.data, shape).copy()
    except ValueError:
        raise ValueError(f"broadcast_to: cannot expand shape {x.shape} to {shape}") from None
    in_shape = x.shape
    return _node(out_data, (x,), lambda g: _unbroadcast(g, in_shape))


def softmax(x: Tensor, exact_sum: bool = False) -> Tensor:
    """Row softmax over the last axis, max-subtracted for stability."""
    out_data = _softmax_data(x.data, exact_sum)
    return _node(out_data, (x,), lambda g: _softmax_vjp(out_data, g))


def cumsum(x: Tensor, axis: int) -> Tensor:
    """Running sum along an axis (position t = sum of entries 0..t)."""
    return _node(np.cumsum(x.data, axis=axis), (x,),
                 lambda g: _contiguous(np.flip(np.cumsum(np.flip(g, axis=axis), axis=axis),
                                               axis=axis)))


def layer_norm(x: Tensor, gain: Tensor | float = 1.0, bias: Tensor | float = 0.0) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then `* gain + bias`.

    One tape node; the VJP of `x` is the closed form of the composed ops' one.
    """
    gain, bias = (t if isinstance(t, Tensor) else Tensor(t) for t in (gain, bias))
    out_data, xhat, std = _layer_norm_data(x.data, gain.data, bias.data)
    return _node(out_data, (x, gain, bias),
                 *_layer_norm_vjps(xhat, std, gain.data, bias.shape))


# -- complex carrier -------------------------------------------------------------


class ComplexTensor:
    """Real/imaginary tensor pair; keeps complex math on the real-valued tape."""

    __slots__ = ("re", "im")

    def __init__(self, re: Tensor, im: Tensor):
        if re.shape != im.shape:
            raise ValueError(f"ComplexTensor: re shape {re.shape} != im shape {im.shape}")
        self.re = re
        self.im = im

    @property
    def shape(self) -> tuple:
        return self.re.shape

    def magnitude(self, eps: float = 0.0) -> Tensor:
        """Elementwise sqrt(re^2 + im^2 (+ eps)); eps > 0 smooths the origin kink."""
        sq = self.re.square() + self.im.square()
        if eps:
            sq = sq + eps
        return sq.sqrt()

    def scale(self, w: Tensor) -> "ComplexTensor":
        return ComplexTensor(self.re * w, self.im * w)


# -- gradient verification ---------------------------------------------------------


def grad_check(f: Callable[[Tensor], Tensor], x: Tensor, h: float = 1e-6) -> float:
    """Max relative error between tape gradients and central finite differences.

    `f` must map a tensor to a scalar tensor and be smooth at `x` (no ReLU
    kink crossings within +-h). The error per coordinate is
    |analytic - numeric| / max(1, |analytic|, |numeric|).
    """
    xt = Tensor(x.data.copy(), requires_grad=True)
    return grad_check_param(lambda: f(xt), xt, h)


def grad_check_param(loss_fn: Callable[[], Tensor], param: Tensor,
                     h: float = 1e-6) -> float:
    """`grad_check` for a parameter tensor that lives inside a model.

    `loss_fn` must rebuild the forward pass reading `param` from wherever it
    is installed; its values are perturbed in place for the numeric side.
    """
    if not param.requires_grad:
        raise ValueError("grad_check_param: parameter does not require grad")
    param.zero_grad()
    loss = loss_fn()
    if loss.data.size != 1:
        raise ValueError(f"grad_check_param: loss must be scalar, got {loss.shape}")
    loss.backward()
    analytic = (param.grad if param.grad is not None
                else np.zeros_like(param.data)).reshape(-1).copy()

    flat = param.data.reshape(-1)
    numeric = np.empty_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = loss_fn().item()
        flat[i] = orig - h
        fm = loss_fn().item()
        flat[i] = orig
        numeric[i] = (fp - fm) / (2.0 * h)

    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / denom)) if flat.size else 0.0
