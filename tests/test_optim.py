import tracemalloc

import numpy as np
import pytest

from pkgm.optim import SCRATCH_BYTES, Adam


class TableAdam:
    """Adam stepped table by table, each update a fresh-temporary expression.

    The oracle of the flat optimizer: same per-element operation order, so
    the two must agree bit for bit in any dtype.
    """

    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, grads):
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for name, grad in grads.items():
            p = self.params[name]
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * np.square(grad)
            p -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


def reference_adam(params, grads_seq, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Textbook Adam stepped in float64, independent of the implementation."""
    out = {k: v.astype(np.float64).copy() for k, v in params.items()}
    m = {k: np.zeros_like(v) for k, v in out.items()}
    v = {k: np.zeros_like(val) for k, val in out.items()}
    for t, grads in enumerate(grads_seq, start=1):
        for name, g in grads.items():
            g = g.astype(np.float64)
            m[name] = beta1 * m[name] + (1 - beta1) * g
            v[name] = beta2 * v[name] + (1 - beta2) * g * g
            m_hat = m[name] / (1 - beta1**t)
            v_hat = v[name] / (1 - beta2**t)
            out[name] -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return out


def step_with(opt, grads):
    for name, g in grads.items():
        opt.grads[name][...] = g
    opt.step()


def test_matches_reference_over_several_steps():
    rng = np.random.default_rng(0)
    params = {
        "a": rng.normal(size=(3, 4)).astype(np.float64),
        "b": rng.normal(size=(2,)).astype(np.float64),
    }
    grads_seq = [
        {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(2,))} for _ in range(5)
    ]
    want = reference_adam(params, grads_seq, lr=0.05)

    opt = Adam(params, lr=0.05)
    for grads in grads_seq:
        step_with(opt, grads)
    for name in params:
        np.testing.assert_allclose(opt.params[name], want[name], rtol=1e-12)


def test_bit_identical_to_table_oracle_in_float32():
    rng = np.random.default_rng(3)
    shapes = {"emb": (9, 5), "bias": (7,), "transfer": (3, 4, 4), "scalar": ()}
    tables = {k: rng.normal(size=s).astype(np.float32) for k, s in shapes.items()}
    opt = Adam(tables, lr=1e-3)
    oracle = TableAdam({k: v.copy() for k, v in tables.items()}, lr=1e-3)
    for step in range(60):
        grads = {k: rng.normal(scale=10.0 ** rng.integers(-6, 3), size=s).astype(np.float32)
                 for k, s in shapes.items()}
        # rows no batch touched: zero gradient, and the moments still decay
        grads["emb"][rng.random(9) < 0.5] = 0.0
        grads["transfer"][step % 3] = 0.0
        if step % 4 == 0:
            grads["bias"][:] = 0.0
        step_with(opt, grads)
        oracle.step(grads)
    for name in shapes:
        assert opt.params[name].dtype == np.float32
        assert np.array_equal(opt.params[name], oracle.params[name]), name
    assert np.array_equal(opt.m, np.concatenate([oracle.m[k].ravel() for k in shapes]))
    assert np.array_equal(opt.v, np.concatenate([oracle.v[k].ravel() for k in shapes]))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_bit_identical_to_table_oracle_across_scratch_slices(dtype):
    # more elements than the scratch holds, and not a multiple of it: a table
    # spans a slice boundary and the last slice is partial
    per_slice = SCRATCH_BYTES // np.dtype(dtype).itemsize
    rng = np.random.default_rng(5)
    shapes = {"emb": (per_slice // 64 + 3, 64), "long": (per_slice + 1001,), "transfer": (3, 17, 17)}
    tables = {k: rng.normal(size=s).astype(dtype) for k, s in shapes.items()}
    assert sum(t.size for t in tables.values()) % per_slice
    opt = Adam(tables, lr=1e-3)
    oracle = TableAdam({k: v.copy() for k, v in tables.items()}, lr=1e-3)
    for step in range(5):
        grads = {k: rng.normal(scale=10.0 ** rng.integers(-6, 3), size=s).astype(dtype)
                 for k, s in shapes.items()}
        grads["long"][rng.random(shapes["long"]) < 0.3] = 0.0
        step_with(opt, grads)
        oracle.step(grads)
    for name in shapes:
        assert np.array_equal(opt.params[name], oracle.params[name]), name
    assert np.array_equal(opt.m, np.concatenate([oracle.m[k].ravel() for k in shapes]))
    assert np.array_equal(opt.v, np.concatenate([oracle.v[k].ravel() for k in shapes]))


def test_holds_four_buffers_and_steps_in_its_scratch():
    table = np.ones(1_000_000, dtype=np.float32)
    tracemalloc.start()
    try:
        opt = Adam({"w": table}, lr=1e-3)
        held = tracemalloc.get_traced_memory()[0]
        opt.grads["w"][...] = 0.5
        tracemalloc.reset_peak()
        opt.step()
        step_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    # flat, grad, m and v, the scratch, and the slice views
    assert held <= 4 * table.nbytes + SCRATCH_BYTES + (1 << 16)
    assert step_peak <= SCRATCH_BYTES
    assert opt.params["w"][0] < 1.0


def test_tables_are_views_of_flat_buffers():
    opt = Adam({"a": np.ones((2, 3), dtype=np.float32), "b": np.zeros(4, dtype=np.float32)},
               lr=0.1)
    assert opt.flat.shape == opt.grad.shape == opt.m.shape == opt.v.shape == (10,)
    assert opt.params["a"].shape == (2, 3) and opt.grads["b"].shape == (4,)
    assert np.shares_memory(opt.params["b"], opt.flat)
    assert np.shares_memory(opt.grads["a"], opt.grad)
    np.testing.assert_array_equal(opt.flat, [1] * 6 + [0] * 4)
    assert not opt.grad.any()


def test_mixed_dtypes_rejected():
    with pytest.raises(ValueError, match="one dtype"):
        Adam({"a": np.zeros(2, dtype=np.float32), "b": np.zeros(2, dtype=np.float64)}, lr=0.1)


def test_first_step_moves_by_roughly_lr():
    # bias correction makes the first update ~lr * sign(grad) for any grad scale
    opt = Adam({"w": np.zeros(4)}, lr=0.01)
    step_with(opt, {"w": np.array([100.0, -0.001, 3.0, -7.0])})
    np.testing.assert_allclose(
        opt.params["w"], [-0.01, 0.01, -0.01, 0.01], rtol=1e-4
    )


def test_updates_in_place():
    arr = np.ones(3)
    opt = Adam({"w": arr}, lr=0.1)
    table = opt.params["w"]
    step_with(opt, {"w": np.ones(3)})
    assert opt.params["w"] is table
    assert table[0] != 1.0
    # the caller's array was copied, not adopted
    np.testing.assert_array_equal(arr, np.ones(3))


def test_step_counter_shared_across_arrays():
    opt = Adam({"a": np.zeros(2), "b": np.zeros(2)}, lr=0.1)
    step_with(opt, {"a": np.ones(2), "b": np.ones(2)})
    step_with(opt, {"a": np.ones(2), "b": np.ones(2)})
    assert opt.t == 2
    np.testing.assert_allclose(opt.params["a"], opt.params["b"])


def test_zero_gradient_leaves_params_fixed():
    opt = Adam({"w": np.full(3, 5.0)}, lr=0.5)
    opt.step()
    np.testing.assert_array_equal(opt.params["w"], np.full(3, 5.0))
