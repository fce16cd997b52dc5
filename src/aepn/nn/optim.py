"""Parameter updates for the tape tensors."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor


# elements per in-place Adam pass: each pass works on cache-resident slices
_CHUNK = 1 << 14


class Adam:
    """Standard Adam with bias correction; skips parameters without gradients."""

    def __init__(self, params, lr: float = 3e-4, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.params: list[Tensor] = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._scratch = np.empty((2, _CHUNK))

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        """Update in place, slice by slice; the results are bitwise those of
        ``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*g*g`` and
        ``p -= lr * (m/c1) / (sqrt(v/c2) + eps)`` on whole arrays."""
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            arrays = (p.grad, m, v, p.data)
            if m.size > _CHUNK and all(a.flags.c_contiguous for a in arrays):
                flat = [a.reshape(-1) for a in arrays]
                for lo in range(0, m.size, _CHUNK):
                    self._update(*(a[lo:lo + _CHUNK] for a in flat), c1, c2)
            else:
                self._update(*arrays, c1, c2)

    def _update(self, g, m, v, p, c1: float, c2: float) -> None:
        if g.size <= _CHUNK:
            num = self._scratch[0, :g.size].reshape(g.shape)
            den = self._scratch[1, :g.size].reshape(g.shape)
        else:
            num, den = np.empty_like(g), np.empty_like(g)
        b1, b2 = self.beta1, self.beta2
        np.multiply(g, 1.0 - b1, out=num)
        m *= b1
        m += num
        np.multiply(g, 1.0 - b2, out=num)
        num *= g
        v *= b2
        v += num
        np.divide(v, c2, out=den)
        np.sqrt(den, out=den)
        den += self.eps
        np.divide(m, c1, out=num)
        num *= self.lr
        num /= den
        p -= num


def clip_grad_norm(params, max_norm: float) -> float:
    """Scale all gradients so their joint L2 norm is at most `max_norm`."""
    total = 0.0
    grads = [p.grad for p in params if p.grad is not None]
    for g in grads:
        total += float(np.sum(g * g))
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for g in grads:
            g *= scale
    return norm
