"""Reverse-mode automatic differentiation over numpy arrays.

A small define-by-run tape: every operation returns a :class:`Tensor` that
remembers its parents and how to push gradients back to them.  The op set is
exactly what the model and losses call (elementwise add/mul/power, ELU,
softplus, dropout, reshape/swapaxes/narrow, batched matmul, sum/mean,
fused dot-product attention with an optional diagonal mask, logsumexp and
layer norm), plus the last-axis softmax that attention is tested against and
a finite-difference :func:`grad_check` used throughout the test suite.

Gradients are exact, not approximated; the engine runs in float64 for checks
and float32 for training.  A backward sweep consumes its graph (memory is
released as the sweep proceeds), and :func:`no_grad` disables graph capture
entirely for inference loops.  Graph construction is single-threaded per
graph; independent graphs may be evaluated concurrently.
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager

import numpy as np

try:
    # training graphs churn through many multi-MB buffers per step; keeping
    # them on the heap (instead of fresh mmaps) avoids constant page faulting
    _libc = ctypes.CDLL("libc.so.6")
    _libc.mallopt(-3, 1 << 30)  # M_MMAP_THRESHOLD
    _libc.mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD
except (OSError, AttributeError):
    pass

_finite_checks = False
_grad_enabled = True


class AutodiffError(Exception):
    pass


class NonFiniteError(AutodiffError):
    """A forward op produced NaN or infinity (reported with the op name)."""


class NonDeterministicError(AutodiffError):
    """grad_check re-evaluation produced a different value."""


@contextmanager
def finite_checks(enabled=True):
    """Verify every op output is finite while the context is active."""
    global _finite_checks
    prev = _finite_checks
    _finite_checks = enabled
    try:
        yield
    finally:
        _finite_checks = prev


@contextmanager
def no_grad():
    """Disable graph capture: ops return plain constants (fast inference)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _unbroadcast(grad, shape):
    """Sum `grad` down to `shape` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    """A numpy array with a gradient slot and a backward rule."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_op")

    def __init__(self, data, requires_grad=False, _parents=(), _op="leaf"):
        self.data = np.asarray(data)
        self.grad = None
        self.requires_grad = requires_grad or any(p.requires_grad for p in _parents)
        self._parents = _parents
        self._backward = None
        self._op = _op

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def _accumulate(self, grad, own=False):
        """Add `grad` in; `own=True` hands over a fresh array (no copy)."""
        if self.grad is None:
            self.grad = grad if own else np.array(grad)
        else:
            self.grad += grad

    def backward(self, grad=None):
        """Reverse-mode sweep seeding this node with `grad` (default: ones).

        The sweep consumes the graph: parents, backward rules and
        intermediate gradients are dropped as soon as they have been used,
        so large training graphs release memory during the sweep.  Rebuild
        the graph before calling backward again.
        """
        topo = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen or not node.requires_grad:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                stack.append((p, False))
        if grad is None:
            grad = np.ones_like(self.data)
        self._accumulate(np.asarray(grad))
        while topo:
            node = topo.pop()
            if node._backward is not None:
                node._backward()
            node._backward = None
            node._parents = ()
            if node._op != "leaf" and node is not self:
                node.grad = None

    # -- operator sugar --------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __sub__(self, other):
        if isinstance(other, (int, float)):
            return add(self, -other)
        return add(self, -_wrap(other))

    def __rsub__(self, other):
        return add(-self, other) if isinstance(other, (int, float)) \
            else add(_wrap(other), -self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return mul(self, 1.0 / other)
        return mul(self, power(_wrap(other), -1.0))

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, op={self._op}, grad={self.requires_grad})"

    def reshape(self, *shape):
        return reshape(self, *shape)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)


def _wrap(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data, parents, op):
    """Op-node constructor; drops the graph when gradients cannot flow."""
    if _finite_checks and not np.all(np.isfinite(data)):
        raise NonFiniteError(f"{op}: non-finite values in forward output")
    if _grad_enabled and any(p.requires_grad for p in parents):
        return Tensor(data, _parents=parents, _op=op)
    return Tensor(data, _op=op)


def _tracked(out):
    return bool(out._parents)


# -- elementwise ---------------------------------------------------------
# Python scalars stay scalars (numpy weak promotion) so float32 graphs are
# not silently upcast to float64 by 0-d constant arrays.

def add(a, b):
    if isinstance(b, (int, float)):
        a = _wrap(a)
        out = _make(a.data + b, (a,), "add")
        if _tracked(out):
            def _bw():
                a._accumulate(out.grad)
            out._backward = _bw
        return out
    if isinstance(a, (int, float)):
        return add(b, a)
    a, b = _wrap(a), _wrap(b)
    out = _make(a.data + b.data, (a, b), "add")
    if _tracked(out):
        def _bw():
            if a.requires_grad:
                a._accumulate(_unbroadcast(out.grad, a.data.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(out.grad, b.data.shape))
        out._backward = _bw
    return out


def mul(a, b):
    if isinstance(b, (int, float)):
        a = _wrap(a)
        out = _make(a.data * b, (a,), "mul")
        if _tracked(out):
            def _bw():
                a._accumulate(out.grad * b, own=True)
            out._backward = _bw
        return out
    if isinstance(a, (int, float)):
        return mul(b, a)
    a, b = _wrap(a), _wrap(b)
    out = _make(a.data * b.data, (a, b), "mul")
    if _tracked(out):
        def _bw():
            if a.requires_grad:
                a._accumulate(_unbroadcast(out.grad * b.data, a.data.shape), own=True)
            if b.requires_grad:
                b._accumulate(_unbroadcast(out.grad * a.data, b.data.shape), own=True)
        out._backward = _bw
    return out


def power(a, exponent):
    a = _wrap(a)
    out = _make(a.data ** exponent, (a,), "power")
    if _tracked(out):
        def _bw():
            a._accumulate(out.grad * exponent * a.data ** (exponent - 1.0), own=True)
        out._backward = _bw
    return out


def elu(a):
    """ELU with alpha 1: x for x > 0, exp(x) - 1 otherwise."""
    a = _wrap(a)
    neg = np.expm1(np.minimum(a.data, 0.0))
    val = np.maximum(a.data, 0.0)
    val += neg
    out = _make(val, (a,), "elu")
    if _tracked(out):
        def _bw():
            # d/dx is 1 for x > 0 (where neg is 0) and exp(x) = neg + 1 otherwise;
            # neg is dead after this closure, so it holds the gradient
            np.add(neg, 1.0, out=neg)
            np.multiply(neg, out.grad, out=neg)
            a._accumulate(neg, own=True)
        out._backward = _bw
    return out


def _sigmoid(x):
    pos = 1.0 / (1.0 + np.exp(-np.maximum(x, 0.0)))
    ex = np.exp(np.minimum(x, 0.0))
    return np.where(x >= 0, pos, ex / (1.0 + ex))


def softplus(a):
    """log(1 + exp(x)), overflow-safe; derivative is the logistic sigmoid."""
    a = _wrap(a)
    val = np.maximum(a.data, 0.0) + np.log1p(np.exp(-np.abs(a.data)))
    out = _make(val, (a,), "softplus")
    if _tracked(out):
        def _bw():
            a._accumulate(out.grad * _sigmoid(a.data), own=True)
        out._backward = _bw
    return out


# -- shape ---------------------------------------------------------------

def reshape(a, *shape):
    a = _wrap(a)
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    out = _make(a.data.reshape(shape), (a,), "reshape")
    if _tracked(out):
        def _bw():
            a._accumulate(out.grad.reshape(a.data.shape))
        out._backward = _bw
    return out


def swapaxes(a, ax1, ax2):
    a = _wrap(a)
    out = _make(np.swapaxes(a.data, ax1, ax2), (a,), "swapaxes")
    if _tracked(out):
        def _bw():
            a._accumulate(np.swapaxes(out.grad, ax1, ax2))
        out._backward = _bw
    return out


def narrow(a, start, length, axis=0):
    """Contiguous slice [start, start+length) along `axis`."""
    a = _wrap(a)
    sl = [slice(None)] * a.ndim
    sl[axis] = slice(start, start + length)
    sl = tuple(sl)
    out = _make(a.data[sl], (a,), "narrow")
    if _tracked(out):
        def _bw():
            g = np.zeros_like(a.data)
            g[sl] = out.grad
            a._accumulate(g, own=True)
        out._backward = _bw
    return out


def matmul(a, b):
    a, b = _wrap(a), _wrap(b)
    if a.ndim < 2 or b.ndim < 2:
        raise AutodiffError("matmul requires tensors with at least 2 dimensions")
    out = _make(np.matmul(a.data, b.data), (a, b), "matmul")
    if _tracked(out):
        def _bw():
            if a.requires_grad:
                ga = np.matmul(out.grad, np.swapaxes(b.data, -1, -2))
                a._accumulate(_unbroadcast(ga, a.data.shape), own=True)
            if b.requires_grad:
                gb = np.matmul(np.swapaxes(a.data, -1, -2), out.grad)
                b._accumulate(_unbroadcast(gb, b.data.shape), own=True)
        out._backward = _bw
    return out


# -- reductions ----------------------------------------------------------

def tsum(a, axis=None, keepdims=False):
    a = _wrap(a)
    out = _make(a.data.sum(axis=axis, keepdims=keepdims), (a,), "sum")
    if _tracked(out):
        def _bw():
            g = out.grad
            if not keepdims and axis is not None:
                g = np.expand_dims(g, axis)
            a._accumulate(np.broadcast_to(g, a.data.shape))
        out._backward = _bw
    return out


def tmean(a, axis=None, keepdims=False):
    a = _wrap(a)
    count = a.data.size if axis is None else np.prod(
        [a.data.shape[ax] for ax in np.atleast_1d(axis)])
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / float(count))


# -- normalization and attention helpers ----------------------------------

def softmax(a, mask_diagonal=False):
    """Softmax over the last axis; `mask_diagonal` zeroes the self-weights.

    With the mask on, the last two axes must be square: -inf is written onto
    their diagonal before the row max, so diagonal weights come out exactly
    0 and the other entries are the softmax of the off-diagonal logits.  The
    input array is left unchanged.
    """
    a = _wrap(a)
    s = a.data.copy()
    if mask_diagonal:
        *lead, m, n = s.shape
        if m != n or n < 2:
            raise AutodiffError(f"diagonal mask needs square n x n rows, n >= 2, "
                                f"got {s.shape}")
        s.reshape(*lead, n * n)[..., ::n + 1] = -np.inf
    s -= np.max(s, axis=-1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)
    out = _make(s, (a,), "softmax")
    if _tracked(out):
        def _bw():
            g = out.grad  # dead after this closure; safe to consume in place
            g -= np.einsum("...i,...i->...", g, s)[..., None]
            g *= s
            a._accumulate(g, own=True)
        out._backward = _bw
    return out


def attention(q, k, v, mask_diagonal=False):
    """softmax(q kᵀ) v over the last two axes as one node; returns (out, weights).

    `weights` is the (..., query, key) probability array.  With the mask on,
    the query and key counts must be equal: -inf is written onto the
    diagonal of the logits before the max, as in :func:`softmax`, so
    self-weights come out exactly 0.  Leading axes broadcast (a query
    without the batch axis is shared by every batch element).

    The probabilities are held transposed, keys on axis -2, so the row max
    and row sum reduce over an outer axis; the backward keeps only them and
    uses D = rowsum(dO * O) in place of the n x n softmax row-dot
    (FlashAttention, Dao et al. 2022).
    """
    q, k, v = _wrap(q), _wrap(k), _wrap(v)
    pt = np.matmul(k.data, np.swapaxes(q.data, -1, -2))  # (..., key, query)
    *lead, m, n = pt.shape
    if mask_diagonal:
        if m != n or n < 2:
            raise AutodiffError(f"diagonal mask needs as many keys as queries, "
                                f"n >= 2, got {m} keys for {n} queries")
        pt.reshape(*lead, n * n)[..., ::n + 1] = -np.inf
    pt -= np.max(pt, axis=-2, keepdims=True)
    np.exp(pt, out=pt)
    pt /= np.matmul(np.ones((1, m), dtype=pt.dtype), pt)
    weights = np.swapaxes(pt, -1, -2)
    out = _make(np.matmul(weights, v.data), (q, k, v), "attention")
    if _tracked(out):
        def _bw():
            g = out.grad
            if v.requires_grad:
                v._accumulate(_unbroadcast(np.matmul(pt, g), v.data.shape), own=True)
            if not (q.requires_grad or k.requires_grad):
                return
            d = np.einsum("...i,...i->...", g, out.data)[..., None, :]
            dst = np.matmul(v.data, np.swapaxes(g, -1, -2))  # dPᵀ
            dst -= d
            dst *= pt  # dSᵀ, the gradient of the transposed logits
            if q.requires_grad:
                dq = np.matmul(np.swapaxes(dst, -1, -2), k.data)
                q._accumulate(_unbroadcast(dq, q.data.shape), own=True)
            if k.requires_grad:
                k._accumulate(_unbroadcast(np.matmul(dst, q.data), k.data.shape), own=True)
        out._backward = _bw
    return out, weights


def logsumexp(a, axis=-1):
    a = _wrap(a)
    m = np.max(a.data, axis=axis, keepdims=True)
    e = np.exp(a.data - m)
    se = e.sum(axis=axis, keepdims=True)
    out = _make(np.squeeze(m + np.log(se), axis=axis), (a,), "logsumexp")
    if _tracked(out):
        def _bw():
            g = np.expand_dims(out.grad, axis)
            a._accumulate(g * (e / se), own=True)
        out._backward = _bw
    return out


def _row_mean(x, avg):
    """Mean over the last axis, kept as a length-1 axis: one GEMV with the
    (d, 1) vector `avg` of 1/d (faster than .mean(axis=-1) on short rows)."""
    return np.matmul(x.reshape(-1, x.shape[-1]), avg).reshape(*x.shape[:-1], 1)


def layer_norm(a, gamma, beta, eps=1e-5):
    """Normalize over the last axis, then scale and shift.

    A constant vector normalizes to zeros (the eps floor keeps the
    reciprocal finite), so the output is just `beta`.
    """
    a, gamma, beta = _wrap(a), _wrap(gamma), _wrap(beta)
    d = a.shape[-1]
    avg = np.full((d, 1), 1.0 / d, dtype=a.dtype)
    xhat = a.data - _row_mean(a.data, avg)
    inv = _row_mean(xhat * xhat, avg)
    inv += eps
    np.sqrt(inv, out=inv)
    np.reciprocal(inv, out=inv)
    xhat *= inv
    val = xhat * gamma.data
    val += beta.data
    out = _make(val, (a, gamma, beta), "layer_norm")
    if _tracked(out):
        def _bw():
            g = out.grad
            if gamma.requires_grad:
                gamma._accumulate(_unbroadcast(g * xhat, gamma.data.shape), own=True)
            if beta.requires_grad:
                beta._accumulate(_unbroadcast(g, beta.data.shape))
            if a.requires_grad:
                dxhat = g * gamma.data
                m1 = _row_mean(dxhat, avg)
                t = dxhat * xhat
                m2 = _row_mean(t, avg)
                np.multiply(xhat, m2, out=t)
                dxhat -= m1
                dxhat -= t
                dxhat *= inv
                a._accumulate(dxhat, own=True)
        out._backward = _bw
    return out


def dropout(a, rate, rng):
    """Inverted dropout; draws one mask from `rng`.  rate=0 is the identity."""
    a = _wrap(a)
    if rate == 0.0:
        return a
    if not 0.0 <= rate < 1.0:
        raise AutodiffError(f"dropout rate {rate} outside [0, 1)")
    draw_dtype = a.data.dtype if a.data.dtype in (np.float32, np.float64) else np.float64
    keep = (rng.random(a.data.shape, dtype=draw_dtype) >= rate).astype(a.data.dtype)
    keep /= (1.0 - rate)
    return mul(a, Tensor(keep))


# -- parameters -----------------------------------------------------------

class ParameterSet:
    """Named map of trainable tensors with gradient slots."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def add(self, name, array):
        if name in self._params:
            raise AutodiffError(f"duplicate parameter name: {name}")
        t = Tensor(np.asarray(array), requires_grad=True)
        self._params[name] = t
        return t

    def __getitem__(self, name) -> Tensor:
        return self._params[name]

    def __contains__(self, name):
        return name in self._params

    def __len__(self):
        return len(self._params)

    def names(self):
        return list(self._params)

    def items(self):
        return self._params.items()

    def zero_grad(self):
        for t in self._params.values():
            t.grad = None

    def gradients(self):
        """name -> gradient array (zeros where a parameter was unused)."""
        return {
            name: (t.grad if t.grad is not None else np.zeros_like(t.data))
            for name, t in self._params.items()
        }

    def copy(self):
        ps = ParameterSet()
        for name, t in self._params.items():
            ps.add(name, t.data.copy())
        return ps

    def astype(self, dtype):
        ps = ParameterSet()
        for name, t in self._params.items():
            ps.add(name, t.data.astype(dtype))
        return ps


def grad_check(fn, params, h=1e-5, names=None):
    """Max relative error between analytic and central-difference gradients.

    `fn` must rebuild its graph from `params` on every call and return a
    scalar Tensor; it must be deterministic (dropout off).  Parameters must
    be float64.  The relative error denominator is
    max(|analytic|, |numeric|, 1e-8) per coordinate.
    """
    check_names = names if names is not None else params.names()
    for name in check_names:
        if params[name].data.dtype != np.float64:
            raise AutodiffError(f"grad_check requires float64 parameters ({name})")

    params.zero_grad()
    out = fn()
    if out.data.size != 1:
        raise AutodiffError("grad_check target must be scalar")
    base = float(out.data)
    out.backward()
    analytic = {n: np.array(params[n].grad, copy=True) if params[n].grad is not None
                else np.zeros_like(params[n].data) for n in check_names}

    if float(fn().data) != base:
        raise NonDeterministicError("objective changed between evaluations")

    worst = 0.0
    with no_grad():
        for name in check_names:
            theta = params[name].data
            it = np.nditer(theta, flags=["multi_index"])
            while not it.finished:
                idx = it.multi_index
                orig = theta[idx]
                theta[idx] = orig + h
                f_plus = float(fn().data)
                theta[idx] = orig - h
                f_minus = float(fn().data)
                theta[idx] = orig
                numeric = (f_plus - f_minus) / (2.0 * h)
                a = analytic[name][idx]
                denom = max(abs(a), abs(numeric), 1e-8)
                worst = max(worst, abs(a - numeric) / denom)
                it.iternext()
    params.zero_grad()
    return worst
