"""Gradient engine tests: every primitive against central finite differences."""

import math
import os
import signal
import sys
import time
import tracemalloc

import numpy as np
import pytest

from eegtransfer import autodiff as ad


def fd_check(fn, params, tol=1e-6, h=1e-5):
    err = ad.grad_check(fn, params, h=h)
    assert err < tol, f"max relative error {err:.3e}"


def make_param(rng, shape, name="x"):
    ps = ad.ParameterSet()
    ps.add(name, rng.normal(size=shape))
    return ps


def test_quadratic_gradient_is_exact():
    rng = np.random.default_rng(0)
    ps = make_param(rng, (3, 4))
    fd_check(lambda: ad.tsum(ps["x"] * ps["x"]), ps, tol=1e-9)


def test_simple_square_derivative():
    ps = ad.ParameterSet()
    x = ps.add("x", 3.0)
    y = x * x
    y.backward()
    assert float(x.grad) == pytest.approx(6.0)


def test_gradient_of_sum_is_ones():
    ps = ad.ParameterSet()
    x = ps.add("x", np.arange(6.0).reshape(2, 3))
    ad.tsum(x).backward()
    assert np.array_equal(x.grad, np.ones((2, 3)))


@pytest.mark.parametrize("shape", [(4,), (2, 3), (2, 3, 4)])
def test_elementwise_primitives(shape):
    rng = np.random.default_rng(1)
    ps = make_param(rng, shape)
    w = rng.normal(size=shape)
    fd_check(lambda: ad.tsum(ad.elu(ps["x"]) * ad.Tensor(w)), ps)
    fd_check(lambda: ad.tsum(ad.softplus(ps["x"]) * ad.Tensor(w)), ps)
    # subtraction is the add of a negated operand (Tensor has no `-`)
    fd_check(lambda: ad.tmean(ad.add(ps["x"] * ps["x"] + ad.mul(ps["x"], -2.0), -1.5)), ps)


def test_power_gradients():
    rng = np.random.default_rng(2)
    ps = ad.ParameterSet()
    ps.add("x", rng.uniform(0.5, 2.0, size=(3, 3)))
    for exponent in (-0.5, 0.5, -1.0):
        fd_check(lambda: ad.tsum(ad.power(ps["x"], exponent)), ps)


def test_matmul_gradients_batched_and_broadcast():
    rng = np.random.default_rng(3)
    ps = ad.ParameterSet()
    ps.add("a", rng.normal(size=(2, 3, 4)))
    ps.add("w", rng.normal(size=(4, 5)))
    c = rng.normal(size=(2, 3, 5))
    fd_check(lambda: ad.tsum(ad.matmul(ps["a"], ps["w"]) * ad.Tensor(c)), ps)


def test_matmul_rejects_vectors():
    with pytest.raises(ad.AutodiffError):
        ad.matmul(ad.Tensor(np.ones(3)), ad.Tensor(np.ones((3, 2))))


def test_reductions_and_shapes():
    rng = np.random.default_rng(4)
    ps = make_param(rng, (3, 4, 2))
    w0 = rng.normal(size=(4, 2))
    w1 = rng.normal(size=(3, 4))
    w2 = rng.normal(size=(24,))
    w3 = rng.normal(size=(2, 4, 3))
    w4 = rng.normal(size=(3, 2, 2))
    fd_check(lambda: ad.tsum(ad.tmean(ps["x"], axis=0) * ad.Tensor(w0)), ps)
    fd_check(lambda: ad.tsum(ad.tsum(ps["x"], axis=-1) * ad.Tensor(w1)), ps)
    fd_check(lambda: ad.tsum(ad.reshape(ps["x"], (24,)) * ad.Tensor(w2)), ps)
    fd_check(lambda: ad.tsum(ad.swapaxes(ps["x"], 0, 2) * ad.Tensor(w3)), ps)
    fd_check(lambda: ad.tsum(ad.narrow(ps["x"], 1, 2, axis=1) * ad.Tensor(w4)), ps)


def test_softmax_rows_and_gradient():
    rng = np.random.default_rng(5)
    ps = make_param(rng, (4, 6))
    w = rng.normal(size=(4, 6))
    fd_check(lambda: ad.tsum(ad.softmax(ps["x"]) * ad.Tensor(w)), ps)
    s = ad.softmax(ad.Tensor(rng.normal(size=(4, 6))))
    assert np.allclose(s.data.sum(axis=-1), 1.0, atol=1e-12)


def reference_masked_softmax(x):
    z = np.where(np.eye(x.shape[-1], dtype=bool), -np.inf, x)
    z = z - np.max(z, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / np.sum(e, axis=-1, keepdims=True)


def test_masked_softmax_exact_zeros_and_gradient():
    rng = np.random.default_rng(6)
    eye = np.eye(5, dtype=bool)
    for dtype in (np.float32, np.float64):
        x = rng.normal(size=(3, 2, 5, 5)).astype(dtype)
        before = x.copy()
        s = ad.softmax(ad.Tensor(x), mask_diagonal=True)
        assert np.array_equal(x, before)  # input left unchanged
        assert s.data.dtype == dtype
        assert np.all(s.data[..., eye] == 0.0)
        assert np.allclose(s.data.sum(axis=-1), 1.0, atol=1e-6)
        assert np.array_equal(s.data, reference_masked_softmax(x))
        # a non-contiguous input goes through the same path
        xt = np.swapaxes(x, -1, -2)
        assert np.array_equal(ad.softmax(ad.Tensor(xt), mask_diagonal=True).data,
                              reference_masked_softmax(xt))
    ps = make_param(rng, (2, 5, 5))
    w = rng.normal(size=(2, 5, 5))
    fd_check(lambda: ad.tsum(ad.softmax(ps["x"], mask_diagonal=True) * ad.Tensor(w)), ps)


def test_masked_softmax_needs_square_rows():
    with pytest.raises(ad.AutodiffError, match="square"):
        ad.softmax(ad.Tensor(np.zeros((2, 3, 4))), mask_diagonal=True)
    with pytest.raises(ad.AutodiffError, match="square"):
        ad.softmax(ad.Tensor(np.zeros((2, 1, 1))), mask_diagonal=True)


def reference_attention(q, k, v, n_heads, mask_diagonal):
    """The composed chain the fused op replaces: the head split, the
    1/sqrt(d_head) query scale, matmul -> softmax -> matmul, the head merge."""
    def heads(x):
        *lead, n, d = x.shape
        return ad.swapaxes(ad.reshape(x, (*lead, n, n_heads, d // n_heads)), -3, -2)
    qh = heads(q * (1.0 / math.sqrt(q.shape[-1] // n_heads)))
    logits = ad.matmul(qh, ad.swapaxes(heads(k), -1, -2))
    mixed = ad.matmul(ad.softmax(logits, mask_diagonal=mask_diagonal), heads(v))
    mixed = ad.swapaxes(mixed, -3, -2)
    *lead, n, h, dh = mixed.shape
    return ad.reshape(mixed, (*lead, n, h * dh))


@pytest.mark.parametrize("mask", [False, True])
@pytest.mark.parametrize("q_shape", [(2, 5, 12), (5, 12)], ids=["batched_q", "batchless_q"])
def test_attention_matches_chain_and_gradient(mask, q_shape):
    rng = np.random.default_rng(14)
    ps = ad.ParameterSet()
    ps.add("q", rng.normal(size=q_shape))
    ps.add("k", rng.normal(size=(2, 5, 12)))
    ps.add("v", rng.normal(size=(2, 5, 12)))
    out, weights = ad.attention(ps["q"], ps["k"], ps["v"], 3, mask_diagonal=mask,
                                return_weights=True)
    want = reference_attention(ps["q"], ps["k"], ps["v"], 3, mask)
    assert out.shape == (2, 5, 12) and weights.shape == (2, 3, 5, 5)
    assert np.allclose(out.data, want.data, rtol=0, atol=1e-12)
    assert np.allclose(weights.sum(axis=-1), 1.0, rtol=0, atol=1e-12)
    if mask:
        assert np.all(weights[..., np.arange(5), np.arange(5)] == 0.0)
    else:
        assert np.all(weights > 0.0)
    w = rng.normal(size=(2, 5, 12))
    fd_check(lambda: ad.tsum(ad.attention(ps["q"], ps["k"], ps["v"], 3, mask)[0]
                             * ad.Tensor(w)), ps)


def test_attention_masked_float32_self_weights_exactly_zero():
    rng = np.random.default_rng(15)
    q, k, v = (rng.normal(size=(4, 7, 6)).astype(np.float32) for _ in range(3))
    q[..., 0, :] = k[..., 0, :] * 50.0  # a dominant self-logit is still removed
    out, weights = ad.attention(ad.Tensor(q), ad.Tensor(k), ad.Tensor(v), 2,
                                mask_diagonal=True, return_weights=True)
    assert out.dtype == weights.dtype == np.float32
    assert np.all(weights[..., np.arange(7), np.arange(7)] == 0.0)


def test_attention_mask_needs_square_logits():
    q, kv = ad.Tensor(np.zeros((2, 3, 4))), ad.Tensor(np.zeros((2, 5, 4)))
    with pytest.raises(ad.AutodiffError, match="as many keys as queries"):
        ad.attention(q, kv, kv, 2, mask_diagonal=True)
    one = ad.Tensor(np.zeros((2, 1, 4)))
    with pytest.raises(ad.AutodiffError, match="n >= 2"):
        ad.attention(one, one, one, 2, mask_diagonal=True)
    # unmasked cross-attention is fine
    out, weights = ad.attention(q, kv, kv, 2, return_weights=True)
    assert weights.shape == (2, 2, 3, 5) and out.shape == (2, 3, 4)


def run_attention(q, k, v, mask, dout):
    """Output and q, k, v gradient bytes of a tracked attention fed `dout`."""
    ts = [ad.Tensor(a.copy(), requires_grad=True) for a in (q, k, v)]
    out, weights = ad.attention(*ts, 2, mask_diagonal=mask)
    assert weights is None  # built only when asked for
    out.backward(dout)
    return [out.data.tobytes()] + [t.grad.tobytes() for t in ts]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("mask", [False, True])
@pytest.mark.parametrize("q_shape", [(9, 6, 6), (6, 6)], ids=["batched_q", "batchless_q"])
def test_attention_tiles_bitwise_equal_to_whole_batch(dtype, mask, q_shape, attention_tile,
                                                      monkeypatch):
    rng = np.random.default_rng(24)
    q = rng.normal(size=q_shape).astype(dtype)
    k, v, dout = (rng.normal(size=(9, 6, 6)).astype(dtype) for _ in range(3))
    whole = run_attention(q, k, v, mask, dout)
    # two entries' worth of Pᵀ per tile, which `_split` raises to 4: the 9
    # entries run as tiles of 4, 4 and 1 in each direction
    attention_tile(2 * 2 * 6 * 6 * np.dtype(dtype).itemsize)
    tiles = []

    def recorded(kernel):
        def run(*args, **kwargs):
            tiles.append(len(args[0]))
            return kernel(*args, **kwargs)
        return run
    for name in ("_attention_rows", "_attention_grad_rows"):
        monkeypatch.setattr(ad, name, recorded(getattr(ad, name)))
    assert run_attention(q, k, v, mask, dout) == whole
    assert tiles == [4, 4, 1] * 2


def test_attention_forward_keeps_no_probabilities(set_workers):
    """A tracked masked forward at B = 64, cut in two slices, holds less than
    one (64, 4, 62, 62) array, at its peak and after it returns."""
    set_workers(2)  # the peak grows with the slices that run at once
    rng = np.random.default_rng(25)
    q, k, v = (ad.Tensor(rng.normal(size=(64, 62, 32)).astype(np.float32),
                         requires_grad=True) for _ in range(3))
    probs_bytes = 64 * 4 * 62 * 62 * 4
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out, _ = ad.attention(q, k, v, 4, mask_diagonal=True)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out._backward is not None
    assert held - before < probs_bytes
    assert peak - before < probs_bytes


def test_logsumexp_matches_reference_and_gradient():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(3, 5)) * 10
    got = ad.logsumexp(ad.Tensor(x)).data
    want = np.log(np.exp(x - x.max(-1, keepdims=True)).sum(-1)) + x.max(-1)
    assert np.allclose(got, want, atol=1e-12)
    ps = make_param(rng, (3, 5))
    w = rng.normal(size=(3,))
    fd_check(lambda: ad.tsum(ad.logsumexp(ps["x"]) * ad.Tensor(w)), ps)


def test_layer_norm_gradient_and_constant_row():
    rng = np.random.default_rng(8)
    ps = ad.ParameterSet()
    ps.add("x", rng.normal(size=(4, 6)))
    ps.add("g", rng.uniform(0.5, 1.5, size=6))
    ps.add("b", rng.normal(size=6))
    w = rng.normal(size=(4, 6))
    fd_check(lambda: ad.tsum(ad.layer_norm(ps["x"], ps["g"], ps["b"]) * ad.Tensor(w)), ps)
    # constant vector normalizes to zero before the affine shift
    out = ad.layer_norm(ad.Tensor(np.full((1, 6), 3.7)), ad.Tensor(np.ones(6)),
                        ad.Tensor(np.zeros(6)))
    assert np.allclose(out.data, 0.0)


def test_elu_definition():
    x = ad.Tensor(np.array([-1e6, -1.0, 0.0, 2.5]))
    y = ad.elu(x).data
    assert y[0] == pytest.approx(-1.0)        # limit at -inf
    assert y[1] == pytest.approx(np.expm1(-1.0))
    assert y[2] == 0.0
    assert y[3] == 2.5
    # forward and gradient are bitwise the select-based forms elu used to
    # compute, which stay here as the reference
    rng = np.random.default_rng(12)
    for dtype in (np.float32, np.float64):
        x = np.array([-1e6, -1.0, -0.0, 0.0, 2.5, np.inf, -np.inf], dtype=dtype)
        x = np.concatenate([x, rng.normal(size=300).astype(dtype) * 3])
        neg = np.expm1(np.minimum(x, 0.0))
        want_y = np.where(x > 0, x, neg)
        want_d = np.where(x > 0, 1.0, neg + 1.0)
        t = ad.Tensor(x, requires_grad=True)
        out = ad.elu(t)
        dout = rng.normal(size=x.shape).astype(dtype)
        out.backward(dout)
        assert out.data.dtype == t.grad.dtype == dtype
        assert out.data.tobytes() == want_y.tobytes()
        assert t.grad.tobytes() == (dout * want_d).tobytes()


def test_dropout_semantics():
    rng = np.random.default_rng(9)
    x = ad.Tensor(np.ones((100, 100)), requires_grad=True)
    out = ad.dropout(x, 0.0, rng)
    assert out is x  # rate 0 is the identity
    kept = ad.dropout(x, 0.4, np.random.default_rng(0)).data
    assert set(np.unique(kept)) <= {0.0, 1.0 / 0.6}
    # same seed, same mask
    a = ad.dropout(x, 0.4, np.random.default_rng(7)).data
    b = ad.dropout(x, 0.4, np.random.default_rng(7)).data
    assert np.array_equal(a, b)


# -- fused ops against the composed chains they replace ----------------------

def reference_linear(x, w, b=None):
    """reshape -> matmul -> reshape (-> add): the affine chain `linear` replaces."""
    if x.ndim == 2:
        y = ad.matmul(x, w)
    else:
        *lead, d = x.shape
        y = ad.reshape(ad.matmul(ad.reshape(x, (-1, d)), w), (*lead, w.shape[-1]))
    return y if b is None else y + b


def reference_dropout(a, rate, rng):
    """Dropout as a product with a constant mask tensor (two tape nodes)."""
    keep = (rng.random(a.shape, dtype=a.dtype) >= rate).astype(a.dtype)
    keep /= (1.0 - rate)
    return ad.mul(a, ad.Tensor(keep))


def reference_ffn(x, w1, b1, w2, b2, rate, rng):
    h = ad.elu(reference_linear(x, w1, b1))
    if rng is not None and rate > 0:
        h = reference_dropout(h, rate, rng)
    return reference_linear(h, w2, b2)


def run_bitwise(fn, arrays, dout):
    """Output bytes and the gradient bytes of every input, fed `dout`."""
    ts = [ad.Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = fn(*ts)
    out.backward(dout)
    return [out.data.tobytes()] + [t.grad.tobytes() for t in ts]


def assert_bitwise(fused, reference, arrays, rng):
    out_shape = fused(*[ad.Tensor(a) for a in arrays]).shape
    dout = rng.normal(size=out_shape).astype(arrays[0].dtype)
    got = run_bitwise(fused, arrays, dout)
    want = run_bitwise(reference, arrays, dout)
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"{'output' if i == 0 else f'gradient of input {i - 1}'} differs"


@pytest.mark.parametrize("x_shape", [(5, 4), (2, 5, 4)], ids=["2d", "3d"])
@pytest.mark.parametrize("bias", [True, False])
def test_linear_gradient(x_shape, bias):
    rng = np.random.default_rng(16)
    ps = ad.ParameterSet()
    ps.add("x", rng.normal(size=x_shape))
    ps.add("w", rng.normal(size=(4, 3)))
    if bias:
        ps.add("b", rng.normal(size=3))
    c = rng.normal(size=(*x_shape[:-1], 3))
    b = ps["b"] if bias else None
    fd_check(lambda: ad.tsum(ad.linear(ps["x"], ps["w"], b) * ad.Tensor(c)), ps)
    out = ad.linear(ps["x"], ps["w"], b)
    assert out.shape == (*x_shape[:-1], 3) and out._op == "linear"
    assert set(map(id, out._parents)) == {id(ps[n]) for n in ps.names()}


@pytest.mark.parametrize("x_shape", [(62, 32), (6, 62, 32)], ids=["2d", "3d"])
@pytest.mark.parametrize("bias", [True, False])
def test_linear_float32_bitwise_equal_to_chain(x_shape, bias):
    rng = np.random.default_rng(17)
    arrays = [rng.normal(size=x_shape).astype(np.float32),
              rng.normal(size=(32, 24)).astype(np.float32)]
    if bias:
        arrays.append(rng.normal(size=24).astype(np.float32))
    assert_bitwise(ad.linear, reference_linear, arrays, rng)


@pytest.mark.parametrize("rate", [0.0, 0.3])
def test_ffn_gradient(rate):
    rng = np.random.default_rng(18)
    ps = ad.ParameterSet()
    ps.add("x", rng.normal(size=(2, 5, 4)))
    ps.add("w1", rng.normal(size=(4, 6)))
    ps.add("b1", rng.normal(size=6))
    ps.add("w2", rng.normal(size=(6, 4)))
    ps.add("b2", rng.normal(size=4))
    c = rng.normal(size=(2, 5, 4))

    def fn():  # the same mask on every call: the rng is re-seeded
        out = ad.ffn(ps["x"], ps["w1"], ps["b1"], ps["w2"], ps["b2"], rate,
                     np.random.default_rng(3))
        return ad.tsum(out * ad.Tensor(c))
    fd_check(fn, ps)
    out = ad.ffn(ps["x"], ps["w1"], ps["b1"], ps["w2"], ps["b2"], rate, np.random.default_rng(3))
    assert out._op == "ffn" and len(out._parents) == 5


@pytest.mark.parametrize("rate,seeded", [(0.0, False), (0.0, True), (0.25, True)],
                         ids=["no_rng", "rate0", "dropout"])
def test_ffn_float32_bitwise_equal_to_chain(rate, seeded):
    rng = np.random.default_rng(19)
    arrays = [rng.normal(size=(6, 62, 32)).astype(np.float32),
              rng.normal(size=(32, 64)).astype(np.float32),
               rng.normal(size=64).astype(np.float32),
               rng.normal(size=(64, 32)).astype(np.float32),
               rng.normal(size=32).astype(np.float32)]
    arrays[0][0, 0, :] = -1e6  # ELU saturates at -1 and its derivative at 0
    draws = {}

    def with_rng(op):
        def run(*ts):
            r = np.random.default_rng(5) if seeded else None
            out = op(*ts, rate, r)
            draws[op] = None if r is None else r.random()  # rng state after the op
            return out
        return run
    assert_bitwise(with_rng(ad.ffn), with_rng(reference_ffn), arrays, rng)
    assert draws[ad.ffn] == draws[reference_ffn]


@pytest.mark.parametrize("a_shape,r_shape", [((2, 5, 6), (2, 5, 6)),
                                             ((5, 6), (2, 5, 6)),
                                             ((2, 5, 6), (5, 6))],
                         ids=["batched", "batchless_a", "batchless_residual"])
def test_layer_norm_residual_gradient(a_shape, r_shape):
    rng = np.random.default_rng(20)
    ps = ad.ParameterSet()
    ps.add("a", rng.normal(size=a_shape))
    ps.add("r", rng.normal(size=r_shape))
    ps.add("g", rng.uniform(0.5, 1.5, size=6))
    ps.add("b", rng.normal(size=6))
    w = rng.normal(size=(2, 5, 6))
    fd_check(lambda: ad.tsum(ad.layer_norm(ps["a"], ps["g"], ps["b"], residual=ps["r"])
                             * ad.Tensor(w)), ps)
    out = ad.layer_norm(ps["a"], ps["g"], ps["b"], residual=ps["r"])
    assert out.shape == (2, 5, 6) and len(out._parents) == 4


@pytest.mark.parametrize("r_shape", [(6, 62, 32), (62, 32)], ids=["batched", "batchless"])
def test_layer_norm_residual_float32_bitwise_equal_to_sum(r_shape):
    rng = np.random.default_rng(21)
    arrays = [rng.normal(size=(6, 62, 32)).astype(np.float32),
              rng.normal(size=r_shape).astype(np.float32),
              rng.uniform(0.5, 1.5, size=32).astype(np.float32),
              rng.normal(size=32).astype(np.float32)]
    assert_bitwise(lambda a, r, g, b: ad.layer_norm(a, g, b, residual=r),
                   lambda a, r, g, b: ad.layer_norm(r + a, g, b), arrays, rng)


def linear_add_norm(x, w, b, r, g, beta):
    return ad.linear(x, w, b, add_norm=(r, g, beta))


def reference_linear_add_norm(x, w, b, r, g, beta):
    """The two nodes the Add & Norm form replaces: linear, then the residual
    layer norm."""
    return ad.layer_norm(ad.linear(x, w, b), g, beta, residual=r)


def ffn_add_norm(x, w1, b1, w2, b2, g, beta, rate, rng):
    return ad.ffn(x, w1, b1, w2, b2, rate, rng, add_norm=(g, beta))


def reference_ffn_add_norm(x, w1, b1, w2, b2, g, beta, rate, rng):
    return ad.layer_norm(ad.ffn(x, w1, b1, w2, b2, rate, rng), g, beta, residual=x)


@pytest.mark.parametrize("r_shape", [(6, 62, 24), (62, 24)], ids=["batched", "batchless"])
def test_linear_add_norm_float32_bitwise_equal_to_layer_norm(r_shape):
    rng = np.random.default_rng(34)
    arrays = [rng.normal(size=(6, 62, 32)).astype(np.float32),
              rng.normal(size=(32, 24)).astype(np.float32),
              rng.normal(size=24).astype(np.float32),
              rng.normal(size=r_shape).astype(np.float32),
              rng.uniform(0.5, 1.5, size=24).astype(np.float32),
              rng.normal(size=24).astype(np.float32)]
    assert_bitwise(linear_add_norm, reference_linear_add_norm, arrays, rng)
    out = linear_add_norm(*(ad.Tensor(a, requires_grad=True) for a in arrays))
    assert out._op == "linear" and len(out._parents) == 6


@pytest.mark.parametrize("rate,seeded", [(0.0, False), (0.25, True)], ids=["no_rng", "dropout"])
def test_ffn_add_norm_float32_bitwise_equal_to_layer_norm(rate, seeded):
    rng = np.random.default_rng(36)
    arrays = [rng.normal(size=(6, 62, 32)).astype(np.float32),
              rng.normal(size=(32, 64)).astype(np.float32),
              rng.normal(size=64).astype(np.float32),
              rng.normal(size=(64, 32)).astype(np.float32),
              rng.normal(size=32).astype(np.float32),
              rng.uniform(0.5, 1.5, size=32).astype(np.float32),
              rng.normal(size=32).astype(np.float32)]
    draws = {}

    def with_rng(op):
        def run(*ts):
            r = np.random.default_rng(5) if seeded else None
            out = op(*ts, rate, r)
            draws[op] = None if r is None else r.random()  # rng state after the op
            return out
        return run
    assert_bitwise(with_rng(ffn_add_norm), with_rng(reference_ffn_add_norm), arrays, rng)
    assert draws[ffn_add_norm] == draws[reference_ffn_add_norm]
    out = ffn_add_norm(*(ad.Tensor(a, requires_grad=True) for a in arrays), rate, None)
    assert out._op == "ffn" and len(out._parents) == 7


def _split_op_cases():
    """Each fused op that splits its rows, on a batch of 8 (2 tiles at 2
    workers): name -> (parameter shapes, objective of the ParameterSet)."""
    def ffn(ps):  # the same mask on every call: the rng is re-seeded
        return ad.ffn(ps["x"], ps["w1"], ps["b1"], ps["w2"], ps["b2"], 0.3,
                      np.random.default_rng(3))

    def attention(mask):
        return lambda ps: ad.attention(ps["q"], ps["k"], ps["v"], 2, mask)[0]

    def layer_norm(ps):
        return ad.layer_norm(ps["a"], ps["g"], ps["b"], residual=ps["r"])

    def linear_norm(ps):
        return ad.linear(ps["x"], ps["w"], ps["bias"], add_norm=(ps["r"], ps["g"], ps["b"]))

    def ffn_norm(ps):
        return ad.ffn(ps["x"], ps["w1"], ps["b1"], ps["w2"], ps["b2"], 0.3,
                      np.random.default_rng(3), add_norm=(ps["g"], ps["b"]))
    kv = {"k": (8, 5, 6), "v": (8, 5, 6)}
    ln = {"g": (6,), "b": (6,)}
    return {
        "linear": ({"x": (8, 3, 5), "w": (5, 2), "b": (2,)},
                   lambda ps: ad.linear(ps["x"], ps["w"], ps["b"])),
        "ffn": ({"x": (8, 3, 5), "w1": (5, 6), "b1": (6,), "w2": (6, 5), "b2": (5,)}, ffn),
        "linear_add_norm": ({"x": (8, 3, 5), "w": (5, 6), "bias": (6,), "r": (8, 3, 6), **ln},
                            linear_norm),
        "linear_add_norm_batchless_residual": (
            {"x": (8, 3, 5), "w": (5, 6), "bias": (6,), "r": (3, 6), **ln}, linear_norm),
        "ffn_add_norm": ({"x": (8, 3, 6), "w1": (6, 5), "b1": (5,), "w2": (5, 6), "b2": (6,),
                          **ln}, ffn_norm),
        "attention": ({"q": (8, 5, 6), **kv}, attention(False)),
        "attention_masked": ({"q": (8, 5, 6), **kv}, attention(True)),
        "attention_batchless_q": ({"q": (5, 6), **kv}, attention(True)),
        "layer_norm": ({"a": (8, 3, 6), "r": (8, 3, 6), **ln}, layer_norm),
        "layer_norm_batchless_a": ({"a": (3, 6), "r": (8, 3, 6), **ln}, layer_norm),
        "layer_norm_batchless_residual": ({"a": (8, 3, 6), "r": (3, 6), **ln}, layer_norm),
    }


@pytest.mark.parametrize("case", list(_split_op_cases()))
def test_split_fused_op_gradient_at_2_workers(case, set_workers):
    shapes, op = _split_op_cases()[case]
    rng = np.random.default_rng(23)
    ps = ad.ParameterSet()
    for name, shape in shapes.items():
        ps.add(name, rng.uniform(0.5, 1.5, size=shape) if name == "g"
               else rng.normal(size=shape))
    set_workers(2)
    c = rng.normal(size=op(ps).shape)
    assert ad._pool is not None  # the rows were split
    fd_check(lambda: ad.tsum(op(ps) * ad.Tensor(c)), ps)


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("n", [4, 5, 7, 9, 13, 31])
@pytest.mark.parametrize("most", [None, 2, 11])
def test_split_cuts_at_multiples_of_4_entries(most, n, workers, set_workers):
    """Tiles start at multiples of 4 batch entries (here of 3 rows each)
    and hold at most `most` entries, rounded down to a multiple of 4 and
    4 at least.  The pool cuts any batch of more than 4 entries, and `most`
    one longer than its cap, on one worker too."""
    set_workers(workers)
    x = np.arange(3.0 * n).reshape(n, 3, 1)  # each row holds its own index
    tiles = []

    def kernel(t):  # works in place: records its first entry and entry count
        tiles.append((int(t.flat[0]) // 3, len(t)))
    ad._split(kernel, None, (x,), most=most)
    tiles.sort()
    assert tiles[0][0] == 0 and sum(length for _, length in tiles) == n
    assert all(lo + length == nxt for (lo, length), (nxt, _) in zip(tiles, tiles[1:]))
    assert all(lo % 4 == 0 for lo, _ in tiles)
    cap = n if most is None else max(4, most // 4 * 4)
    assert all(length <= cap for _, length in tiles)
    assert (len(tiles) > 1) == (n > 4 and (workers > 1 or n > cap))


def test_run_jobs_claims_each_job_once_under_thread_switching(set_workers):
    # more threads than CPUs and a tiny switch interval: a lost update of the
    # shared counter would run some job twice or skip it
    set_workers(6)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            runs = np.zeros(500, dtype=np.int64)

            def job(i):
                runs[i] += 1
            ad._run_jobs(job, len(runs), 6)
            assert np.all(runs == 1)
    finally:
        sys.setswitchinterval(interval)


def test_row_mean_cut_off_4_rows_changes_bits():
    """`layer_norm` cuts its rows at multiples of 4 because OpenBLAS's
    row-mean GEMV takes rows in fours: cut at a multiple of 4 rows it gives the whole
    array's bits, cut elsewhere (as at every other entry of 19 or 62
    channels) it need not.  So the worker-count bitwise tests can fail if a
    cut moves; skipped where this BLAS shows no such difference."""
    rng = np.random.default_rng(31)
    changed = 0
    for d in (32, 64):
        avg = np.full((d, 1), 1.0 / d, dtype=np.float32)
        x = rng.normal(size=(190, d)).astype(np.float32)
        whole = ad._row_mean(x, avg)

        def cut(k):
            return np.concatenate([ad._row_mean(x[:k], avg), ad._row_mean(x[k:], avg)])
        assert all(np.array_equal(cut(k), whole) for k in range(4, 190, 4))
        changed += sum(not np.array_equal(cut(k), whole) for k in (19, 38, 62, 124))
    if not changed:
        pytest.skip("this BLAS's row-mean GEMV gives the whole array's bits at any cut")


@pytest.mark.parametrize("channels", [3, 19, 62])
@pytest.mark.parametrize("residual", [None, "batched", "batchless"])
def test_layer_norm_bitwise_equal_at_1_2_3_workers(channels, residual, set_workers):
    """Output and every gradient of `layer_norm` at 1, 2 and 3 workers, with
    tiles as small as the cut allows, at odd and even channel counts."""
    rng = np.random.default_rng(32)
    shape = (12, channels, 32)
    arrays = [rng.normal(size=shape).astype(np.float32),
              rng.uniform(0.5, 1.5, size=32).astype(np.float32),
              rng.normal(size=32).astype(np.float32)]
    if residual is not None:
        arrays.append(rng.normal(size=shape[residual == "batchless":]).astype(np.float32))
    seed = rng.normal(size=shape).astype(np.float32)
    runs = []
    for workers in (1, 2, 3):
        set_workers(workers)
        ts = [ad.Tensor(a.copy(), requires_grad=True) for a in arrays]
        out = ad.layer_norm(*ts[:3], residual=ts[3] if len(ts) > 3 else None)
        out.backward(seed)
        assert (ad._pool is not None) == (workers > 1)  # the tiles were cut
        runs.append([out.data.tobytes()] + [t.grad.tobytes() for t in ts])
    assert runs[1] == runs[0]
    assert runs[2] == runs[0]


def test_forked_child_runs_split_ops(set_workers):
    set_workers(2)
    x, w = ad.Tensor(np.arange(120.0).reshape(8, 3, 5)), ad.Tensor(np.ones((5, 2)))
    want = ad.linear(x, w).data  # starts the pool in this process
    assert ad._pool is not None
    pid = os.fork()
    if pid == 0:  # the child has none of the pool's threads
        os._exit(0 if np.array_equal(ad.linear(x, w).data, want) else 1)
    deadline = time.monotonic() + 30
    done, status = os.waitpid(pid, os.WNOHANG)
    while not done:
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child hung in a split op")
        time.sleep(0.05)
        done, status = os.waitpid(pid, os.WNOHANG)
    assert os.waitstatus_to_exitcode(status) == 0


def test_dropout_is_one_node_bitwise_equal_to_mask_product():
    rng = np.random.default_rng(22)
    x = rng.normal(size=(8, 128)).astype(np.float32)
    out = ad.dropout(ad.Tensor(x, requires_grad=True), 0.1, np.random.default_rng(4))
    assert out._op == "dropout" and len(out._parents) == 1
    draws = {}

    def with_rng(op):
        def run(t):
            r = np.random.default_rng(4)
            out = op(t, 0.1, r)
            draws[op] = r.random()
            return out
        return run
    assert_bitwise(with_rng(ad.dropout), with_rng(reference_dropout), [x], rng)
    assert draws[ad.dropout] == draws[reference_dropout]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("start", ["even", "odd", "buffered"])
def test_keep_mask_equals_float_draw(dtype, start):
    """The mask off raw generator words equals rng.random(shape) >= rate, and
    the generator ends in the same state."""
    shape = (5, 3) if start == "odd" else (4, 62, 6)
    for rate in (0.1, 0.3, 0.5, 1.0 - 1e-9):
        rngs = [np.random.default_rng(27), np.random.default_rng(27)]
        if start == "buffered":  # leaves half a word in each generator
            for r in rngs:
                r.random(3, dtype=np.float32)
        got = ad._keep_mask(shape, np.dtype(dtype), rate, rngs[0])
        want = rngs[1].random(shape, dtype=dtype) >= rate
        assert got.shape == want.shape and np.array_equal(got, want)
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
        assert np.array_equal(rngs[0].random(3, dtype=np.float32),
                              rngs[1].random(3, dtype=np.float32))


# -- gradient hand-over -------------------------------------------------------

@pytest.mark.parametrize("root", ["reshape", "swapaxes", "add_scalar", "add", "dropout",
                                  "softmax"])
def test_backward_leaves_root_grad_unchanged(root):
    rng = np.random.default_rng(23)
    x = ad.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    y = ad.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    out = {"reshape": lambda: ad.reshape(x, (4, 3)),
           "swapaxes": lambda: ad.swapaxes(x, 0, 1),
           "add_scalar": lambda: x + 2.0,
           "add": lambda: x + y,
           "dropout": lambda: ad.dropout(x, 0.5, np.random.default_rng(0)),
           "softmax": lambda: ad.softmax(x)}[root]()
    seed = rng.normal(size=out.shape)
    out.backward(seed)
    assert np.array_equal(out.grad, seed)
    assert not np.shares_memory(out.grad, x.grad)
    if root == "add":
        assert not np.shares_memory(x.grad, y.grad)
        assert np.array_equal(x.grad, seed) and np.array_equal(y.grad, seed)


def test_self_add_and_reshape_add_gradients():
    x = ad.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    ad.tsum((x + x) * ad.Tensor(np.full((2, 3), 3.0))).backward()
    assert np.array_equal(x.grad, np.full((2, 3), 6.0))

    x = ad.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    w = np.arange(6.0).reshape(2, 3) + 1.0
    ad.tsum((ad.reshape(ad.reshape(x, (3, 2)), (2, 3)) + x) * ad.Tensor(w)).backward()
    assert np.array_equal(x.grad, 2.0 * w)

    x = ad.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    ad.tsum(ad.swapaxes(x, 0, 1) + ad.swapaxes(x, 0, 1)).backward()
    assert np.array_equal(x.grad, np.full((2, 3), 2.0))


def test_broadcast_add_mul_gradients():
    rng = np.random.default_rng(10)
    ps = ad.ParameterSet()
    ps.add("x", rng.normal(size=(3, 4)))
    ps.add("b", rng.normal(size=(4,)))
    w = rng.normal(size=(3, 4))
    fd_check(lambda: ad.tsum((ps["x"] + ps["b"]) * ad.Tensor(w)), ps)
    fd_check(lambda: ad.tsum((ps["x"] * ps["b"]) * ad.Tensor(w)), ps)


def test_scalar_ops_preserve_float32():
    x = ad.Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
    assert (x * 0.5).dtype == np.float32
    assert (x + 1.0).dtype == np.float32
    assert ad.add(x, -1.0).dtype == np.float32
    assert ad.mul(x, -0.5).dtype == np.float32


def test_forward_deterministic_under_seed():
    def run():
        rng = np.random.default_rng(42)
        x = ad.Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
        return ad.tsum(ad.dropout(ad.elu(x), 0.3, rng)).data
    assert run() == run()


def test_grad_check_rejects_nondeterminism():
    ps = ad.ParameterSet()
    ps.add("x", np.ones(2))
    state = {"n": 0.0}

    def noisy():
        state["n"] += 1.0
        return ad.tsum(ps["x"] * state["n"])

    with pytest.raises(ad.NonDeterministicError):
        ad.grad_check(noisy, ps)


def test_grad_check_requires_float64():
    ps = ad.ParameterSet()
    ps.add("x", np.ones(2, dtype=np.float32))
    with pytest.raises(ad.AutodiffError):
        ad.grad_check(lambda: ad.tsum(ps["x"]), ps)


def test_finite_checks_reports_op_name():
    with ad.finite_checks():
        with pytest.raises(ad.NonFiniteError, match="power"), \
                np.errstate(divide="ignore"):
            ad.power(ad.Tensor(np.array([0.0])), -1.0)


def test_no_grad_builds_no_graph():
    ps = ad.ParameterSet()
    ps.add("x", np.ones(3))
    with ad.no_grad():
        out = ad.tsum(ps["x"] * 2.0)
    assert not out.requires_grad
    assert out._parents == ()


def test_unused_parameter_reports_zero_gradient():
    ps = ad.ParameterSet()
    ps.add("x", np.ones(2))
    ps.add("unused", np.ones(3))
    ad.tsum(ps["x"]).backward()
    grads = ps.gradients()
    assert np.array_equal(grads["unused"], np.zeros(3))
