"""Adaptive-moment gradient optimizer over one flat parameter buffer."""

from __future__ import annotations

import numpy as np

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # the defaults of Kingma & Ba (ICLR 2015)
# the one temporary of a step, walked over the buffers a slice at a time
SCRATCH_BYTES = 1 << 18


class Adam:
    """Adam over named tables copied into one contiguous buffer.

    params[name] and grads[name] are views of the flat buffers flat and
    grad: the params are the live tables, and callers write each step's
    whole gradient into grads before calling step(), which consumes it
    (grad then holds the update). Every table is updated on every step, so
    bias correction uses one shared step counter. The optimizer holds four
    buffers the size of the model (flat, grad, m and v) plus one scratch
    of at most SCRATCH_BYTES; the caller's tables are copied, not kept.
    """

    def __init__(self, tables: dict[str, np.ndarray], lr: float):
        dtypes = {table.dtype for table in tables.values()}
        if len(dtypes) != 1:
            raise ValueError(f"tables must share one dtype, got {sorted(map(str, dtypes))}")
        (dtype,) = dtypes
        size = sum(table.size for table in tables.values())
        self.flat = np.empty(size, dtype=dtype)
        self.grad, self.m, self.v = np.zeros((3, size), dtype=dtype)
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        lo = 0
        for name, table in tables.items():
            hi = lo + table.size
            self.params[name] = self.flat[lo:hi].reshape(table.shape)
            self.params[name][...] = table
            self.grads[name] = self.grad[lo:hi].reshape(table.shape)
            lo = hi
        n = max(1, min(size, SCRATCH_BYTES // dtype.itemsize))
        scratch = np.empty(n, dtype=dtype)
        # per slice: views of flat, grad, m, v and of the scratch
        self._slices = [(self.flat[lo:lo + n], self.grad[lo:lo + n], self.m[lo:lo + n],
                         self.v[lo:lo + n], scratch[:min(n, size - lo)])
                        for lo in range(0, size, n)]
        self.lr = lr
        self.t = 0

    def step(self) -> None:
        """Apply one update from the gradient in grad, in place; grad is spent."""
        self.t += 1
        bc1 = 1.0 - BETA1 ** self.t
        bc2 = 1.0 - BETA2 ** self.t
        # in place, with the per-element operation order of the expression
        # p -= lr * (m / bc1) / (sqrt(v / bc2) + eps), so the result is
        # bit-equal to evaluating it table by table with temporaries
        for p, g, m, v, s in self._slices:
            v *= BETA2
            np.square(g, out=s)
            s *= 1.0 - BETA2
            v += s
            m *= BETA1
            g *= 1.0 - BETA1
            m += g
            np.divide(m, bc1, out=g)
            g *= self.lr
            np.divide(v, bc2, out=s)
            np.sqrt(s, out=s)
            s += EPS
            g /= s
            p -= g
