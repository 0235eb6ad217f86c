"""Dense float64 tensors with reverse-mode automatic differentiation.

Every value flowing through the prediction network is a `Tensor` wrapping a
contiguous float64 numpy array. Each operation records a tape node holding
its parents and one vector-Jacobian product (VJP) per parent, which maps the
output's gradient to that parent's share. A VJP may keep input and output
arrays but never the output tensor, so the tape has no reference cycles and a
forward pass that is never backpropagated is freed as soon as its outputs are
dropped. `Tensor.backward()` is the one place that routes gradients: it walks
the tape once in reverse topological order, accumulates gradients into every
`requires_grad` node it can reach, and then frees the graph. Complex quantities (frequency spectra) are carried as a
`ComplexTensor` pair of real tensors so the tape itself stays real-valued.

Broadcasting follows numpy's trailing-dimension alignment. Anything fancier
has to be an explicit reshape/broadcast_to at the call site.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

Array = np.ndarray


def _contiguous(a: Array) -> Array:
    # ascontiguousarray would promote 0-d arrays to 1-d; keep scalars 0-d
    if a.ndim == 0 or a.flags["C_CONTIGUOUS"]:
        return a
    return np.ascontiguousarray(a)


def _as_array(data) -> Array:
    return _contiguous(np.asarray(data, dtype=np.float64))


def _broadcast_shape(sa: tuple, sb: tuple, op: str) -> tuple:
    try:
        return np.broadcast_shapes(sa, sb)
    except ValueError:
        raise ValueError(f"{op}: shapes {sa} and {sb} do not broadcast") from None


def _unbroadcast(grad: Array, shape: tuple) -> Array:
    """Sum a gradient back down to `shape` after numpy broadcasting."""
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
        out.requires_grad = any(p.requires_grad for p in parents)
        if out.requires_grad:
            out._parents = parents
            out._vjps = vjps
        else:
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
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
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
        _broadcast_shape(a.shape, b.shape, "add")
        return _node(a.data + b.data, (a, b),
                     lambda g: _unbroadcast(g, a.shape),
                     lambda g: _unbroadcast(g, b.shape))

    def __sub__(self, other) -> "Tensor":
        a, b = self, other if isinstance(other, Tensor) else Tensor(other)
        _broadcast_shape(a.shape, b.shape, "sub")
        return _node(a.data - b.data, (a, b),
                     lambda g: _unbroadcast(g, a.shape),
                     lambda g: _unbroadcast(-g, b.shape))

    def __mul__(self, other) -> "Tensor":
        a, b = self, other if isinstance(other, Tensor) else Tensor(other)
        _broadcast_shape(a.shape, b.shape, "mul")
        return _node(a.data * b.data, (a, b),
                     lambda g: _unbroadcast(g * b.data, a.shape),
                     lambda g: _unbroadcast(g * a.data, b.shape))

    def __truediv__(self, other) -> "Tensor":
        a, b = self, other if isinstance(other, Tensor) else Tensor(other)
        _broadcast_shape(a.shape, b.shape, "div")
        out_data = a.data / b.data
        return _node(out_data, (a, b),
                     lambda g: _unbroadcast(g / b.data, a.shape),
                     lambda g: _unbroadcast(-g * out_data / b.data, b.shape))

    def __neg__(self) -> "Tensor":
        return _node(-self.data, (self,), lambda g: -g)

    def __radd__(self, other) -> "Tensor":
        return Tensor(other) + self

    def __rsub__(self, other) -> "Tensor":
        return Tensor(other) - self

    def __rmul__(self, other) -> "Tensor":
        return Tensor(other) * self

    def __rtruediv__(self, other) -> "Tensor":
        return Tensor(other) / self

    # -- matrix product ----------------------------------------------------------

    def __matmul__(self, other) -> "Tensor":
        return matmul(self, other)

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
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        if sorted(axes) != list(range(self.ndim)):
            raise ValueError(f"transpose: axes {axes} are not a permutation for shape {self.shape}")
        inv = tuple(np.argsort(axes))
        return _node(_contiguous(self.data.transpose(axes)), (self,),
                     lambda g: g.transpose(inv))

    def __getitem__(self, key) -> "Tensor":
        a = self.data
        advanced = _has_integer_index(key)

        def scatter(g: Array) -> Array:
            full = np.zeros_like(a)
            if advanced:
                np.add.at(full, key, g)
            else:
                full[key] += g
            return full

        return _node(_contiguous(np.asarray(a[key])), (self,), scatter)

    # -- reductions -------------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        in_shape = self.shape
        return _node(np.asarray(self.data.sum(axis=axis, keepdims=keepdims)), (self,),
                     lambda g: np.broadcast_to(_unreduce(g, axis, keepdims), in_shape).copy())

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        in_shape = self.shape
        count = self.data.size if axis is None else np.prod(
            [in_shape[ax] for ax in (axis if isinstance(axis, tuple) else (axis,))])
        return _node(np.asarray(self.data.mean(axis=axis, keepdims=keepdims)), (self,),
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
        d = self.data
        out_data = np.empty_like(d)
        pos = d >= 0
        out_data[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
        ex = np.exp(d[~pos])
        out_data[~pos] = ex / (1.0 + ex)
        return _node(out_data, (self,), lambda g: g * out_data * (1.0 - out_data))


def _node(data: Array, parents: tuple[Tensor, ...],
          *vjps: Callable[[Array], Array]) -> Tensor:
    """A tape node; `vjps[i]` maps the output's gradient to parent i's share.

    A VJP may close over input and output arrays, never over the output
    tensor, so the tape holds no reference cycles.
    """
    return Tensor._from_op(data, parents, vjps)


def _unreduce(g: Array, axis, keepdims: bool) -> Array:
    """Restore the axes a reduction dropped, so `g` broadcasts to its input."""
    return g if axis is None or keepdims else np.expand_dims(g, axis)


def _has_integer_index(key) -> bool:
    items = key if isinstance(key, tuple) else (key,)
    return any(isinstance(k, (list, np.ndarray)) for k in items)


# -- free functions (ops that read better without method chaining) -----------------


def matmul(a: Tensor, b: Tensor, exact_sum: bool = False) -> Tensor:
    """Batched matrix product over the last two axes.

    Leading axes broadcast numpy-style. An output row does not depend, bit
    for bit, on where its row of `a` sits: BLAS gemm rounds rows alike, gemv
    does not, so a one-column `b` is summed by numpy over the C-ordered
    product, which adds every row in the same order. With `exact_sum`, each
    contraction is a sorted sum, independent of summand order (used for
    sums over a permutable axis).
    """
    a = a if isinstance(a, Tensor) else Tensor(a)
    b = b if isinstance(b, Tensor) else Tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError(f"matmul: operands must have ndim >= 2, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ValueError(f"matmul: inner dimensions mismatch, {a.shape} vs {b.shape}")
    _broadcast_shape(a.shape[:-2], b.shape[:-2], "matmul (leading axes)")

    if exact_sum or b.shape[-1] == 1:
        prod = np.multiply(a.data[..., :, None, :],                # [..., n, m, k]
                           np.swapaxes(b.data, -1, -2)[..., None, :, :], order="C")
        out_data = _sorted_sum_last(prod) if exact_sum else prod.sum(axis=-1)
    else:
        out_data = np.matmul(a.data, b.data)

    return _node(out_data, (a, b),
                 lambda g: _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape),
                 lambda g: _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape))


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate along an existing axis; the exact inverse of slicing."""
    ts = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    if not ts:
        raise ValueError("concat: empty tensor list")
    out_data = np.concatenate([t.data for t in ts], axis=axis)
    offsets = np.cumsum([0] + [t.shape[axis] for t in ts])
    idx = [slice(None)] * out_data.ndim
    vjps = []
    for lo, hi in zip(offsets[:-1], offsets[1:]):
        idx[axis] = slice(int(lo), int(hi))
        vjps.append(lambda g, key=tuple(idx): g[key])
    return _node(out_data, tuple(ts), *vjps)


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
    z = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    if exact_sum:
        denom = _sorted_sum_last(np.array(e, order="C"))[..., None]   # a sorted copy
    else:
        denom = e.sum(axis=-1, keepdims=True)
    out_data = e / denom
    return _node(out_data, (x,),
                 lambda g: out_data * (g - (g * out_data).sum(axis=-1, keepdims=True)))


def cumsum(x: Tensor, axis: int) -> Tensor:
    """Running sum along an axis (position t = sum of entries 0..t)."""
    return _node(np.cumsum(x.data, axis=axis), (x,),
                 lambda g: _contiguous(np.flip(np.cumsum(np.flip(g, axis=axis), axis=axis),
                                               axis=axis)))


def layer_norm(x: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance (no affine part)."""
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = centered.square().mean(axis=-1, keepdims=True)
    return centered / (var + eps).sqrt()


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
