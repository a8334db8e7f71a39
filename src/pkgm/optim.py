"""Adaptive-moment gradient optimizer over one flat parameter buffer."""

from __future__ import annotations

import numpy as np

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # the defaults of Kingma & Ba (ICLR 2015)


class Adam:
    """Adam over named tables copied into one contiguous buffer.

    params[name] and grads[name] are views of the flat buffers flat and
    grad: the params are the live tables, and callers write each step's
    gradient into grads before calling step(). Every table is updated on
    every step, so bias correction uses one shared step counter.
    """

    def __init__(self, tables: dict[str, np.ndarray], lr: float):
        dtypes = {table.dtype for table in tables.values()}
        if len(dtypes) != 1:
            raise ValueError(f"tables must share one dtype, got {sorted(map(str, dtypes))}")
        (dtype,) = dtypes
        size = sum(table.size for table in tables.values())
        self.flat = np.empty(size, dtype=dtype)
        self.grad, self.m, self.v, *self._scratch = np.zeros((5, size), dtype=dtype)
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        lo = 0
        for name, table in tables.items():
            hi = lo + table.size
            self.params[name] = self.flat[lo:hi].reshape(table.shape)
            self.params[name][...] = table
            self.grads[name] = self.grad[lo:hi].reshape(table.shape)
            lo = hi
        self.lr = lr
        self.t = 0

    def step(self) -> None:
        """Apply one update from the gradient in grad, in place."""
        self.t += 1
        bc1 = 1.0 - BETA1 ** self.t
        bc2 = 1.0 - BETA2 ** self.t
        g, m, v = self.grad, self.m, self.v
        s, u = self._scratch
        # in place, with the per-element operation order of the expression
        # p -= lr * (m / bc1) / (sqrt(v / bc2) + eps), so the result is
        # bit-equal to evaluating it table by table with temporaries
        m *= BETA1
        np.multiply(g, 1.0 - BETA1, out=s)
        m += s
        v *= BETA2
        np.square(g, out=s)
        s *= 1.0 - BETA2
        v += s
        np.divide(m, bc1, out=s)
        s *= self.lr
        np.divide(v, bc2, out=u)
        np.sqrt(u, out=u)
        u += EPS
        s /= u
        self.flat -= s
