"""Reverse-mode automatic differentiation over numpy arrays.

Small tape-based engine: every operation returns a Tensor that remembers
its parents and a closure pushing the output gradient back to them.
``backward()`` walks the tape once in reverse topological order and then
frees it.  float64 throughout; only the operations the policy and value
networks need.
"""

from __future__ import annotations

import contextlib

import numpy as np

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Disable tape recording (rollouts, evaluation)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` over the axes numpy added or stretched to reach `shape`."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _as_tensor(x) -> "Tensor":
    return x if isinstance(x, Tensor) else Tensor(x)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_push")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple = ()
        self._push = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, grad={self.requires_grad})"

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def _accum(self, g: np.ndarray) -> None:
        self.grad = g if self.grad is None else self.grad + g

    @staticmethod
    def _make(data, parents, push) -> "Tensor":
        out = Tensor(data)
        if _GRAD_ENABLED and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(p for p in parents if p.requires_grad)
            out._push = push
        return out

    def backward(self, grad=None) -> None:
        if not self.requires_grad:
            raise RuntimeError("backward on a tensor outside any recorded computation")
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
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = (np.ones_like(self.data) if grad is None
                     else np.asarray(grad, dtype=np.float64))
        for node in reversed(topo):
            if node._push is not None:
                node._push(node.grad)
                # free the tape so buffers are reclaimed between updates
                node._parents = ()
                node._push = None

    # -- elementwise arithmetic -------------------------------------------

    def __add__(self, other):
        a, b = self, _as_tensor(other)
        def push(g):
            if a.requires_grad:
                a._accum(_unbroadcast(g, a.data.shape))
            if b.requires_grad:
                b._accum(_unbroadcast(g, b.data.shape))
        return Tensor._make(a.data + b.data, (a, b), push)

    __radd__ = __add__

    def __sub__(self, other):
        a, b = self, _as_tensor(other)
        def push(g):
            if a.requires_grad:
                a._accum(_unbroadcast(g, a.data.shape))
            if b.requires_grad:
                b._accum(_unbroadcast(-g, b.data.shape))
        return Tensor._make(a.data - b.data, (a, b), push)

    def __rsub__(self, other):
        return _as_tensor(other).__sub__(self)

    def __mul__(self, other):
        a, b = self, _as_tensor(other)
        def push(g):
            if a.requires_grad:
                a._accum(_unbroadcast(g * b.data, a.data.shape))
            if b.requires_grad:
                b._accum(_unbroadcast(g * a.data, b.data.shape))
        return Tensor._make(a.data * b.data, (a, b), push)

    __rmul__ = __mul__

    def __truediv__(self, other):
        a, b = self, _as_tensor(other)
        def push(g):
            if a.requires_grad:
                a._accum(_unbroadcast(g / b.data, a.data.shape))
            if b.requires_grad:
                b._accum(_unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))
        return Tensor._make(a.data / b.data, (a, b), push)

    def __rtruediv__(self, other):
        return _as_tensor(other).__truediv__(self)

    def __neg__(self):
        a = self
        def push(g):
            a._accum(-g)
        return Tensor._make(-a.data, (a,), push)

    # -- matrix product ----------------------------------------------------

    def __matmul__(self, other):
        a, b = self, _as_tensor(other)
        def push(g):
            if a.requires_grad:
                a._accum(g @ b.data.T)
            if b.requires_grad:
                b._accum(a.data.T @ g)
        return Tensor._make(a.data @ b.data, (a, b), push)

    # -- nonlinearities ----------------------------------------------------

    def relu(self):
        a = self
        mask = a.data > 0.0
        def push(g):
            a._accum(g * mask)
        return Tensor._make(a.data * mask, (a,), push)

    def leaky_relu(self, slope: float = 0.2):
        a = self
        mask = a.data > 0.0
        def push(g):
            a._accum(g * np.where(mask, 1.0, slope))
        return Tensor._make(np.where(mask, a.data, slope * a.data), (a,), push)

    def tanh(self):
        a = self
        out = np.tanh(a.data)
        def push(g):
            a._accum(g * (1.0 - out * out))
        return Tensor._make(out, (a,), push)

    def exp(self):
        a = self
        out = np.exp(a.data)
        def push(g):
            a._accum(g * out)
        return Tensor._make(out, (a,), push)

    def log(self):
        a = self
        def push(g):
            a._accum(g / a.data)
        return Tensor._make(np.log(a.data), (a,), push)

    def clamp(self, lo: float, hi: float):
        a = self
        mask = (a.data >= lo) & (a.data <= hi)
        def push(g):
            a._accum(g * mask)
        return Tensor._make(np.clip(a.data, lo, hi), (a,), push)

    def minimum(self, other):
        a, b = self, _as_tensor(other)
        take_a = a.data <= b.data
        def push(g):
            if a.requires_grad:
                a._accum(_unbroadcast(g * take_a, a.data.shape))
            if b.requires_grad:
                b._accum(_unbroadcast(g * ~take_a, b.data.shape))
        return Tensor._make(np.minimum(a.data, b.data), (a, b), push)

    # -- reductions and shaping -------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        a = self
        def push(g):
            if axis is None:
                a._accum(np.broadcast_to(g, a.data.shape).copy())
            else:
                gg = g if keepdims else np.expand_dims(g, axis)
                a._accum(np.broadcast_to(gg, a.data.shape).copy())
        return Tensor._make(a.data.sum(axis=axis, keepdims=keepdims), (a,), push)

    def mean(self, axis=None, keepdims: bool = False):
        n = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) / float(n)

    def reshape(self, *shape):
        a = self
        def push(g):
            a._accum(g.reshape(a.data.shape))
        return Tensor._make(a.data.reshape(*shape), (a,), push)

    # -- indexed access ----------------------------------------------------

    def gather_rows(self, idx):
        """Rows ``data[idx]``; duplicate indices accumulate on backward."""
        a = self
        idx = np.asarray(idx, dtype=np.intp)
        def push(g):
            buf = np.zeros_like(a.data)
            np.add.at(buf, idx, g)
            a._accum(buf)
        return Tensor._make(a.data[idx], (a,), push)

    def segment_sum(self, segments, num_segments: int):
        """Row sums grouped by segment id: out[k] = sum of rows with segments==k."""
        a = self
        seg = np.asarray(segments, dtype=np.intp)
        out = np.zeros((num_segments,) + a.data.shape[1:], dtype=np.float64)
        np.add.at(out, seg, a.data)
        def push(g):
            a._accum(g[seg])
        return Tensor._make(out, (a,), push)
