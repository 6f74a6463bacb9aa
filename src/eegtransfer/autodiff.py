"""Reverse-mode automatic differentiation over numpy arrays.

A small define-by-run tape: every operation returns a :class:`Tensor` that
remembers its parents and how to push gradients back to them.  The op set is
exactly what the model and losses call (elementwise add/mul/power, ELU,
softplus, dropout, reshape/swapaxes/narrow, batched matmul, sum/mean,
logsumexp and four fused ops: ``linear`` (x @ w + b), ``ffn`` (linear, ELU,
dropout, linear), dot-product ``attention`` with an optional diagonal mask
and ``layer_norm`` with an optional residual), plus the last-axis softmax
that attention is tested against and a finite-difference :func:`grad_check`
used throughout the test suite.  A fused op is one tape node that keeps only
what its hand-written backward reads.

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
        """Add `grad` in; `own=True` hands over an array nothing else holds
        (no copy)."""
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
        # backward rules consume or hand on the gradient of their node; the
        # sweep runs on a copy so the root keeps its own
        seeded = self.grad
        self.grad = seeded.copy()
        while topo:
            node = topo.pop()
            if node._backward is not None:
                node._backward()
            node._backward = None
            node._parents = ()
            if node._op != "leaf" and node is not self:
                node.grad = None
        self.grad = seeded

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


def _share(grad, parents):
    """Accumulate a node's dead gradient into each parent, summed down to the
    parent's shape: the first parent that takes `grad` whole owns it, any
    later one gets a copy."""
    owned = False
    for p in parents:
        if p.requires_grad:
            g = _unbroadcast(grad, p.data.shape)
            whole = g is grad
            p._accumulate(g, own=not (whole and owned))
            owned = owned or whole


# -- elementwise ---------------------------------------------------------
# Python scalars stay scalars (numpy weak promotion) so float32 graphs are
# not silently upcast to float64 by 0-d constant arrays.

def add(a, b):
    if isinstance(b, (int, float)):
        a = _wrap(a)
        out = _make(a.data + b, (a,), "add")
        if _tracked(out):
            def _bw():
                a._accumulate(out.grad, own=True)
            out._backward = _bw
        return out
    if isinstance(a, (int, float)):
        return add(b, a)
    a, b = _wrap(a), _wrap(b)
    out = _make(a.data + b.data, (a, b), "add")
    if _tracked(out):
        def _bw():
            _share(out.grad, (a, b))
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


def _elu(x, out=None):
    """ELU with alpha 1, max(x, 0) + expm1(min(x, 0)); `out=x` works in place."""
    neg = np.expm1(np.minimum(x, 0.0))
    out = np.maximum(x, 0.0, out=out)
    out += neg
    return out


def _elu_slope(e):
    """ELU's derivative from its output e: 1 where e > 0, exp(x) = e + 1
    otherwise, i.e. min(e, 0) + 1."""
    slope = np.minimum(e, 0.0)
    slope += 1.0
    return slope


def elu(a):
    """ELU with alpha 1: x for x > 0, exp(x) - 1 otherwise."""
    a = _wrap(a)
    out = _make(_elu(a.data), (a,), "elu")
    if _tracked(out):
        def _bw():
            g = out.grad  # dead after this closure; safe to consume in place
            g *= _elu_slope(out.data)
            a._accumulate(g, own=True)
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
            a._accumulate(out.grad.reshape(a.data.shape), own=True)
        out._backward = _bw
    return out


def swapaxes(a, ax1, ax2):
    a = _wrap(a)
    out = _make(np.swapaxes(a.data, ax1, ax2), (a,), "swapaxes")
    if _tracked(out):
        def _bw():
            a._accumulate(np.swapaxes(out.grad, ax1, ax2), own=True)
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


def _gemm(x2, w, b, lead):
    """x2 @ w (+ b) for 2-D x2, written into a new (*lead, d_out) array that
    owns its memory (a reshaped view would hide the allocation from memory
    accounting that skips views)."""
    y = np.empty((*lead, w.shape[-1]), dtype=np.result_type(x2, w))
    y2 = y.reshape(x2.shape[0], w.shape[-1])
    np.matmul(x2, w, out=y2)
    if b is not None:
        y2 += b
    return y


def _weight_grads(g2, x2, w, b):
    """Weight and bias gradients of x2 @ w (+ b) from the 2-D output gradient."""
    if w.requires_grad:
        w._accumulate(np.matmul(x2.T, g2), own=True)
    if b is not None and b.requires_grad:
        b._accumulate(g2.sum(axis=0), own=True)


def linear(x, w, b=None):
    """x @ w (+ b) over the last axis as one node.

    `w` is (d_in, d_out) and `b` (d_out,); the leading axes of `x` collapse
    into one GEMM.
    """
    x, w = _wrap(x), _wrap(w)
    b = None if b is None else _wrap(b)
    *lead, d = x.shape
    x2 = x.data.reshape(-1, d)
    out = _make(_gemm(x2, w.data, None if b is None else b.data, lead),
                (x, w) if b is None else (x, w, b), "linear")
    if _tracked(out):
        def _bw():
            g2 = out.grad.reshape(x2.shape[0], -1)
            _weight_grads(g2, x2, w, b)
            if x.requires_grad:
                x._accumulate(np.matmul(g2, w.data.T).reshape(x.data.shape), own=True)
        out._backward = _bw
    return out


def ffn(x, w1, b1, w2, b2, rate, rng):
    """linear(dropout(elu(linear(x, w1, b1)), rate, rng), w2, b2) as one node.

    The backward keeps only the ELU output e and a boolean keep mask: the
    ELU derivative is min(e, 0) + 1 and the dropout output is rebuilt from
    the two.  Dropout draws exactly as :func:`dropout` does and fires only
    when an `rng` is given and `rate` > 0.
    """
    x, w1, b1, w2, b2 = (_wrap(t) for t in (x, w1, b1, w2, b2))
    *lead, d = x.shape
    x2 = x.data.reshape(-1, d)
    e = np.matmul(x2, w1.data)
    e += b1.data
    _elu(e, out=e)
    keep = None
    if rng is not None and rate != 0.0:
        keep = _keep_mask((*lead, e.shape[-1]), e.dtype, rate, rng).reshape(e.shape)
    h = e if keep is None else e * _keep_scale(keep, rate, e.dtype)
    out = _make(_gemm(h, w2.data, b2.data, lead), (x, w1, b1, w2, b2), "ffn")
    if _tracked(out):
        def _bw():
            g2 = out.grad.reshape(x2.shape[0], -1)
            scale = None if keep is None else _keep_scale(keep, rate, e.dtype)
            _weight_grads(g2, e if scale is None else e * scale, w2, b2)
            gh = np.matmul(g2, w2.data.T)
            if scale is not None:
                gh *= scale
            gh *= _elu_slope(e)
            _weight_grads(gh, x2, w1, b1)
            if x.requires_grad:
                x._accumulate(np.matmul(gh, w1.data.T).reshape(x.data.shape), own=True)
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


def layer_norm(a, gamma, beta, eps=1e-5, residual=None):
    """Normalize `a` (plus `residual`, when given) over the last axis, then
    scale and shift.

    The sum `residual + a` is formed in the node's working buffer and both
    addends get its gradient (summed down to a batchless addend's shape).  A
    constant vector normalizes to zeros (the eps floor keeps the reciprocal
    finite), so the output is just `beta`.
    """
    a, gamma, beta = _wrap(a), _wrap(gamma), _wrap(beta)
    inputs = (a,) if residual is None else (_wrap(residual), a)
    d = a.shape[-1]
    avg = np.full((d, 1), 1.0 / d, dtype=a.dtype)
    xhat = a.data.copy() if residual is None else inputs[0].data + a.data
    xhat -= _row_mean(xhat, avg)
    inv = _row_mean(xhat * xhat, avg)
    inv += eps
    np.sqrt(inv, out=inv)
    np.reciprocal(inv, out=inv)
    xhat *= inv
    val = xhat * gamma.data
    val += beta.data
    out = _make(val, (*inputs, gamma, beta), "layer_norm")
    if _tracked(out):
        def _bw():
            g = out.grad
            if gamma.requires_grad:
                gamma._accumulate(_unbroadcast(g * xhat, gamma.data.shape), own=True)
            if beta.requires_grad:
                beta._accumulate(_unbroadcast(g, beta.data.shape))
            if any(t.requires_grad for t in inputs):
                dxhat = g * gamma.data
                m1 = _row_mean(dxhat, avg)
                t = dxhat * xhat
                m2 = _row_mean(t, avg)
                np.multiply(xhat, m2, out=t)
                dxhat -= m1
                dxhat -= t
                dxhat *= inv
                _share(dxhat, inputs)
        out._backward = _bw
    return out


def _keep_mask(shape, dtype, rate, rng):
    """The boolean keep mask of inverted dropout: one uniform draw from `rng`."""
    if not 0.0 <= rate < 1.0:
        raise AutodiffError(f"dropout rate {rate} outside [0, 1)")
    draw_dtype = dtype if dtype in (np.float32, np.float64) else np.float64
    return rng.random(shape, dtype=draw_dtype) >= rate


def _keep_scale(keep, rate, dtype):
    """keep / (1 - rate) in `dtype`: what inverted dropout multiplies by."""
    scale = keep.astype(dtype)
    scale /= (1.0 - rate)
    return scale


def dropout(a, rate, rng):
    """Inverted dropout; draws one mask from `rng`.  rate=0 is the identity."""
    a = _wrap(a)
    if rate == 0.0:
        return a
    scale = _keep_scale(_keep_mask(a.data.shape, a.data.dtype, rate, rng), rate, a.data.dtype)
    out = _make(a.data * scale, (a,), "dropout")
    if _tracked(out):
        def _bw():
            g = out.grad  # dead after this closure; safe to consume in place
            g *= scale
            a._accumulate(g, own=True)
        out._backward = _bw
    return out


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
