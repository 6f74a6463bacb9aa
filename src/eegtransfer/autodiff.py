"""Reverse-mode automatic differentiation over numpy arrays.

A small define-by-run tape: every operation returns a :class:`Tensor` that
remembers its parents and how to push gradients back to them.  The op set is
exactly what the model and losses call (elementwise add/mul/power, ELU,
softplus, dropout, reshape/swapaxes/narrow, batched matmul, sum/mean,
logsumexp and three fused ops: ``linear`` (x @ w + b), ``ffn`` (linear, ELU,
dropout, linear: the encoder's feed-forward, both embeddings and the
classifier's last two layers) and multi-head ``attention`` (head split,
query scale and head merge inside) with an optional diagonal mask), plus
``layer_norm`` with an optional residual and the last-axis softmax, which
the fused forms are tested against, and a finite-difference
:func:`grad_check` used throughout the test suite.  ``linear`` and ``ffn``
can end in a post-norm sublayer's residual Add & Norm, LN(r + x w + b) and
LN(x + ffn(x)), inside the same node, so an encoder layer is four nodes:
query linear, attention, output linear + Add & Norm, feed-forward + Add &
Norm.  A Tensor has ``+`` and ``*`` but no ``-``: a difference is the add of
a negated constant.  A fused op is one tape node that keeps only what its
hand-written backward reads, and no array between two of an encoder layer's
nodes lives only as a node output; ``attention`` keeps no n x n array at
all, only each query's softmax max and sum, and its backward rebuilds the
probabilities from them, bit for bit, a cache-sized tile of batch entries
at a time.

Gradients are exact, not approximated; the engine runs in float64 for checks
and float32 for training.  A backward sweep consumes its graph (memory is
released as the sweep proceeds), and :func:`no_grad` disables graph capture
entirely for inference loops.

A graph is built and swept from one thread.  Inside the fused ops, the
per-sample work (per batch entry and head in ``attention``, the layer norm's
forward and input-gradient kernels, ``ffn`` and ``linear``'s forward and
input-gradient GEMMs) is cut into tiles of the batch axis, a few per CPU the
process may use, when the batch is large enough to pay for the hand-off: the
calling thread and the threads of one pool claim tiles from one counter
(numpy releases the GIL in its ufuncs and in matmul), so a pool thread the
host has descheduled holds back at most one tile.  The op's parameter
gradients (the weight GEMMs and the bias, gamma and beta sums) are claimed
from the same counter as the input-gradient tiles, each one whole-array
numpy call as without the pool, and all are done before the node returns.
When the process may use more than one CPU, OpenBLAS is pinned to one
thread, since the tiles keep the CPUs busy and BLAS threads would only spin
beside them.  Results do not depend on the CPU count: ``_split`` alone cuts
a batch, and its tiles start at multiples of 4 batch entries, where each
tile computes its entries exactly as the whole-array call does (4 entries
are a multiple of 4 rows at any channel count, and OpenBLAS's row-mean GEMV
in the layer norm takes rows in fours); ``attention``'s cache-sized tiles
are the same cut.  Every sum across batch entries stays one whole-array
call.  Dropout masks are drawn before any split.  ``dsp`` runs its filter
jobs through the same claim runner and pool.  A forked child drops the
parent's pool and starts its own on first use.
"""

from __future__ import annotations

import ctypes
import glob
import itertools
import math
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor, wait
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

# workers of the fused ops' tiles, the calling thread included
_workers = len(os.sched_getaffinity(0))
_pool = None
# elements of batched[0] each tile, and so each worker, needs: handing work
# to a pool thread costs 0.1-0.2 ms on a 2-vCPU VM, and a calibration step of
# 48 samples whose 48 x 62 x 64 hidden activations were cut in two ran slower
# than whole
_MIN_SLICE_SIZE = 1 << 17
# most tiles of the batch axis per worker in `_split`: a descheduled pool
# thread holds back one tile of the call, not a worker's whole share, and
# each tile's passes run on cache-sized data.  On 2 vCPUs a reference
# pretrain step took 509 ms at 4 against 521 ms at 1, and 815 against 871 ms
# beside one busy process (medians of 6 interleaved rounds)
_TILES_PER_WORKER = 4
# most bytes of Pᵀ in one tile of `attention`'s batch entries, so that the
# tile's n x n passes run on cache-resident data: 17 entries of 4 heads x
# 62 x 62 in float32 fit, and `_split` cuts tiles of 16
_TILE_BYTES = 1 << 20
# the variance floor of every layer norm
_LN_EPS = 1e-5


def _pin_blas_to_one_thread():
    """Set numpy's OpenBLAS to one thread; a no-op where the setter is missing."""
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        try:
            setter = getattr(ctypes.CDLL(path), "scipy_openblas_set_num_threads64_", None)
        except OSError:
            continue
        if setter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            setter(1)


if _workers > 1:
    _pin_blas_to_one_thread()


def _set_workers(n):
    """Use `n` workers from now on (process-pool initializers and tests)."""
    global _workers, _pool
    if _pool is not None:
        _pool.shutdown()
        _pool = None
    _workers = max(1, int(n))


def _drop_pool():
    """A forked child has none of the parent's pool threads."""
    global _pool
    _pool = None


os.register_at_fork(after_in_child=_drop_pool)


def _executor():
    """The pool of `_workers` - 1 threads, started on first use; the calling
    thread is the remaining worker."""
    global _pool
    if _pool is None:
        _pool = ThreadPoolExecutor(_workers - 1, thread_name_prefix="autodiff")
    return _pool


def _run_jobs(job, n_jobs, threads):
    """Run job(0) ... job(n_jobs - 1) on the calling thread and `threads` - 1
    threads of the pool.

    Each thread claims the next job index from one shared counter, so a pool
    thread that is busy with other work holds back at most the one job it
    runs.  Once every index is claimed, the calling thread cancels the helpers
    that have not started and waits only for the running ones.  Jobs must
    call nothing that a tracer may wrap: only numpy, scipy and private
    helpers.
    """
    if threads < 2:
        for i in range(n_jobs):
            job(i)
        return
    counter, lock = itertools.count(), threading.Lock()

    def drain():
        while True:
            with lock:
                i = next(counter)
            if i >= n_jobs:
                return
            job(i)

    pool = _executor()
    futures = [pool.submit(drain) for _ in range(threads - 1)]
    try:
        drain()
    finally:
        # wait() would also wait for a cancelled future until a pool thread
        # dequeues it, so it gets only the futures that could not be cancelled
        started = [f for f in futures if not f.cancel()]
        wait(started)
    for f in started:
        f.result()


def _pays(size):
    """Whether work over `size` elements is worth handing to the pool."""
    return _workers > 1 and size >= 2 * _MIN_SLICE_SIZE


def _split(kernel, alloc, batched, *shared, size=None, most=None, beside=()):
    """Run `kernel` over tiles of the batch axis, and the callables `beside`
    with them; return the kernel's outputs.

    The batch axis is the leading axis of batched[0] if it has three or more
    dims (a 2-D array is one sample's rows x features).  Another `batched`
    array with fewer dims or a length-1 leading axis broadcasts and goes
    whole to every tile; None passes through.

    This is the one place a batch is cut, under one rule: tiles start at
    multiples of 4 entries, which span a multiple of 4 rows at any channel
    count (OpenBLAS's GEMV takes rows in fours, so the layer norm's row-mean
    GEMV over a tile gives the whole array's bits), and hold at most `most`
    entries when it is given, rounded down to a multiple of 4 and 4 at
    least.  The pool pays for two workers or more and 2 * `_MIN_SLICE_SIZE`
    of the call's `size` elements: those of batched[0] unless the caller
    counts its work in larger arrays (`attention`, in its n x n
    probabilities).  Where it pays, the batch is cut into up to
    `_TILES_PER_WORKER` tiles per worker of `_MIN_SLICE_SIZE` elements at
    least, or into more where `most` asks for them; it is one tile when some
    `batched` array has more dims than batched[0].

    When the pool does not pay and the batch fits one tile, `beside` runs
    first and then kernel(*batched, *shared), which allocates its own
    outputs.  Otherwise the calling thread, with the pool where it pays,
    claims the `beside` callables, then the tiles, with `_run_jobs`:
    alloc(*batched, *shared) allocates the whole outputs (a tuple; None for
    one not wanted, and no `alloc` for a kernel that works in place), each
    tile writes its entries through kernel(*tile, *shared, *output_tile),
    and the outputs are returned, a single one unpacked.  A kernel must
    treat each batch entry on its own, so results do not depend on the cut.
    A `kernel` of None runs only `beside` and returns None.  (OpenBLAS hands
    a GEMM with a transposed operand and under ~40 000 multiply-adds, such
    as 36 rows x 32 x 32, to a small-matrix kernel that rounds differently;
    a tile of `_MIN_SLICE_SIZE` elements is far above that, but tests that
    lower the floor to cut a few channels into tiles of a few rows can see
    last-bit differences.)

    `beside` holds a node's parameter-gradient reductions, each one
    whole-array numpy call that accumulates its result into its parameter:
    they run as they would without the pool, beside the input gradient's
    tiles.  Like the kernel, they must call only numpy and private helpers,
    never a name a tracer may wrap.
    """
    size = batched[0].size if size is None else size
    n, pool = len(batched[0]), _pays(size)
    if most is not None:
        most = max(4, most // 4 * 4)
    if (not pool and (most is None or n <= most)) or (kernel is None and len(beside) < 2):
        for job in beside:
            job()
        return None if kernel is None else kernel(*batched, *shared)
    outs = () if kernel is None or alloc is None else alloc(*batched, *shared)
    arrays, nd = (*batched, *outs), batched[0].ndim
    quads = -(-n // 4)  # groups of 4 entries, the last one perhaps short
    tiles = 0 if kernel is None else 1
    if tiles and nd >= 3 and not any(a is not None and a.ndim > nd for a in batched):
        if pool:
            tiles = max(1, min(quads, _TILES_PER_WORKER * _workers, size // _MIN_SLICE_SIZE))
        if most is not None:
            tiles = max(tiles, -(-n // most))
    cuts = [4 * (quads * i // tiles) for i in range(tiles)] + [n]

    def job(i):
        if i < len(beside):
            beside[i]()
            return
        tile = _rows(arrays, cuts[i - len(beside)], cuts[i - len(beside) + 1], n, nd)
        kernel(*tile[:len(batched)], *shared, *tile[len(batched):])

    jobs = len(beside) + tiles
    _run_jobs(job, jobs, min(_workers, jobs) if pool else 1)
    if kernel is not None:
        return outs[0] if len(outs) == 1 else outs


def _rows(arrays, lo, hi, n, nd):
    """Batch entries lo:hi of each of `arrays` that has the batch axis (`nd`
    dims, `n` entries); the others as they are."""
    return [a[lo:hi] if a is not None and a.ndim == nd and len(a) == n else a
            for a in arrays]


def _elementwise_out(*args):
    """The output of an elementwise kernel: its array arguments' broadcast
    shape and result dtype."""
    arrays = [a for a in args if isinstance(a, np.ndarray)]
    return (np.empty(np.broadcast_shapes(*(a.shape for a in arrays)),
                     dtype=np.result_type(*arrays)),)


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

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, op={self._op}, grad={self.requires_grad})"

    def reshape(self, *shape):
        return reshape(self, *shape)


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


def _affine_rows(x, w, b, y=None):
    """x @ w (+ b) over the last axis, written into `y` or into a new
    (*lead, d_out) array that owns its memory (a reshaped view would hide
    the allocation from memory accounting that skips views)."""
    if y is None:
        y = np.empty((*x.shape[:-1], w.shape[-1]), dtype=np.result_type(x, w))
    y2 = y.reshape(-1, w.shape[-1])
    np.matmul(x.reshape(-1, x.shape[-1]), w, out=y2)
    if b is not None:
        y2 += b
    return y


def _affine_out(x, w, b):
    return (np.empty((*x.shape[:-1], w.shape[-1]), dtype=np.result_type(x, w)),)


def _grad_job(t, fn, *args):
    """A `_split` beside-job that accumulates fn(*args) into `t`, or None
    when `t` wants no gradient."""
    if t is None or not t.requires_grad:
        return None

    def job():
        t._accumulate(fn(*args), own=True)
    return job


def _jobs(*jobs):
    return tuple(j for j in jobs if j is not None)


def _param_grads(g2, x2, w, b):
    """The weight GEMM x2ᵀ g2 and the bias sum of g2, the parameter gradients
    of x2 @ w (+ b) from its 2-D output gradient, as `_split` beside-jobs."""
    return _jobs(_grad_job(w, np.matmul, x2.T, g2), _grad_job(b, np.sum, g2, 0))


def _input_grad(x, g, w, beside):
    """g @ wᵀ, the gradient of x @ w, if `x` wants one (else None), with the
    `beside` jobs run beside its tiles."""
    return _split(_affine_rows if x.requires_grad else None, _affine_out, (g,), w.T, None,
                  beside=beside)


def _linear_norm_rows(x, r, w, b, gamma, beta, avg, xhat=None, inv=None, val=None):
    """Layer norm of r + x @ w (+ b): the affine output is written into x̂'s
    buffer, and the norm runs on it in place."""
    xhat = _affine_rows(x, w, b, xhat)
    return _norm_rows(xhat, r, gamma, beta, avg, xhat, inv, val)


def _linear_norm_out(x, r, w, b, gamma, beta, avg):
    return _norm_stats_out(_affine_out(x, w, b)[0], gamma, beta, avg)


def linear(x, w, b=None, add_norm=None):
    """x @ w (+ b) over the last axis as one node; with `add_norm` =
    (residual, gamma, beta), the residual sublayer end LN(residual + x @ w
    + b) as one node.

    `w` is (d_in, d_out) and `b` (d_out,); the leading axes of `x` collapse
    into one GEMM.  With `add_norm`, each tile writes its GEMM into the
    norm's x̂ buffer, adds the residual there (a batchless residual goes
    whole to every tile) and normalises in place, so the pre-norm sum is
    never a tensor of its own; the residual must broadcast to the output's
    shape.  The backward computes the weight and bias gradients (and
    gamma's and beta's) beside the input gradient's tiles.
    """
    x, w = _wrap(x), _wrap(w)
    b = None if b is None else _wrap(b)
    parents = (x, w) if b is None else (x, w, b)
    bias = None if b is None else b.data
    if add_norm is None:
        y = _split(_affine_rows, _affine_out, (x.data,), w.data, bias)
        out = _make(y, parents, "linear")
    else:
        r, gamma, beta = (_wrap(t) for t in add_norm)
        avg = _avg(w.shape[-1], np.result_type(x.data, w.data))
        xhat, inv, y = _split(_linear_norm_rows, _linear_norm_out, (x.data, r.data), w.data,
                              bias, gamma.data, beta.data, avg)
        out = _make(y, (*parents, r, gamma, beta), "linear")
    if _tracked(out):
        x2 = x.data.reshape(-1, x.shape[-1])

        def _bw():
            g = out.grad
            if add_norm is not None:
                # the output's gradient is dead once the sum's is formed
                g, out.grad = _norm_grad(g, xhat, inv, gamma, beta, avg, (x, w, b, r)), None
                if g is None:
                    return
            gx = _input_grad(x, g, w.data, _param_grads(g.reshape(x2.shape[0], -1), x2, w, b))
            if gx is not None:
                x._accumulate(gx, own=True)
            if add_norm is not None and r.requires_grad:
                r._accumulate(_unbroadcast(g, r.shape), own=True)
        out._backward = _bw
    return out


def _ffn_rows(x, keep, w1, b1, w2, b2, rate, e=None, y=None):
    """The ELU output e and the feed-forward output."""
    e = _affine_rows(x, w1, b1, e)
    _elu(e, out=e)
    return e, _affine_rows(e if keep is None else e * _keep_scale(keep, rate, e.dtype),
                           w2, b2, y)


def _ffn_out(x, keep, w1, b1, w2, b2, rate):
    e = _affine_out(x, w1, b1)[0]
    return e, _affine_out(e, w2, b2)[0]


def _ffn_norm_rows(x, keep, w1, b1, w2, b2, rate, gamma, beta, avg, e=None, xhat=None, inv=None,
                   val=None):
    """The ELU output e and layer norm of x + ffn(x): the feed-forward output
    is written into x̂'s buffer, and the norm runs on it in place."""
    e, xhat = _ffn_rows(x, keep, w1, b1, w2, b2, rate, e, xhat)
    return (e, *_norm_rows(xhat, x, gamma, beta, avg, xhat, inv, val))


def _ffn_norm_out(x, keep, w1, b1, w2, b2, rate, gamma, beta, avg):
    e, y = _ffn_out(x, keep, w1, b1, w2, b2, rate)
    return (e, *_norm_stats_out(y, gamma, beta, avg))


def _dropout_rows(e, keep, rate, h=None):
    return np.multiply(e, _keep_scale(keep, rate, e.dtype), out=h)


def _ffn_hidden_grad_rows(g, e, keep, w2, rate, gh=None):
    """The hidden layer's gradient: (g @ w2ᵀ) * dropout scale * ELU slope."""
    gh = _affine_rows(g, w2.T, None, gh)
    if keep is not None:
        gh *= _keep_scale(keep, rate, e.dtype)
    gh *= _elu_slope(e)
    return gh


def _ffn_hidden_grad_out(g, e, keep, w2, rate):
    return _affine_out(g, w2.T, None)


def ffn(x, w1, b1, w2, b2, rate, rng, add_norm=None):
    """linear(dropout(elu(linear(x, w1, b1)), rate, rng), w2, b2) as one node;
    with `add_norm` = (gamma, beta), the residual sublayer end
    LN(x + ffn(x)) as one node.

    The backward keeps only the ELU output e and a boolean keep mask: the
    ELU derivative is min(e, 0) + 1 and the dropout output is rebuilt from
    the two.  With `add_norm`, each tile writes the second GEMM into the
    norm's x̂ buffer, adds x there and normalises in place, so the
    feed-forward output is never a tensor of its own.  Dropout draws exactly
    as :func:`dropout` does and fires only when an `rng` is given and
    `rate` > 0.  The forward's tiles are sized by the widest of the input,
    hidden and output rows, so a narrow input (the 5 bands of the source
    embedding) still pays for the pool.  The backward computes the second
    layer's weight and bias gradients beside the hidden layer's gradient
    tiles, and the first layer's beside the input gradient's.
    """
    x, w1, b1, w2, b2 = (_wrap(t) for t in (x, w1, b1, w2, b2))
    keep = None
    if rng is not None and rate != 0.0:
        keep = _keep_mask((*x.shape[:-1], w1.shape[-1]), np.result_type(x.data, w1.data),
                          rate, rng)
    params = (x, w1, b1, w2, b2)
    size = x.data.size // x.shape[-1] * max(x.shape[-1], *w2.shape)
    args = (x.data, keep), w1.data, b1.data, w2.data, b2.data, rate
    if add_norm is None:
        e, y = _split(_ffn_rows, _ffn_out, *args, size=size)
        out = _make(y, params, "ffn")
    else:
        gamma, beta = (_wrap(t) for t in add_norm)
        avg = _avg(w2.shape[-1], np.result_type(x.data, w1.data, w2.data))
        e, xhat, inv, y = _split(_ffn_norm_rows, _ffn_norm_out, *args, gamma.data, beta.data,
                                 avg, size=size)
        out = _make(y, (*params, gamma, beta), "ffn")
    if _tracked(out):
        x2 = x.data.reshape(-1, x.shape[-1])

        def _bw():
            g = out.grad
            if add_norm is not None:
                # the output's gradient is dead once the sum's is formed
                g, out.grad = _norm_grad(g, xhat, inv, gamma, beta, avg, params), None
                if g is None:
                    return
            rows = x2.shape[0]
            h = e if keep is None else _split(_dropout_rows, _elementwise_out, (e, keep), rate)
            # the w2 reduction reads h, so h lives until the hidden gradient's call returns
            gh = _split(_ffn_hidden_grad_rows, _ffn_hidden_grad_out, (g, e, keep), w2.data, rate,
                        beside=_param_grads(g.reshape(rows, -1), h.reshape(rows, -1), w2, b2))
            del h
            gx = _input_grad(x, gh, w1.data, _param_grads(gh.reshape(rows, -1), x2, w1, b1))
            if gx is not None:
                x._accumulate(gx, own=True)
            if add_norm is not None and x.requires_grad:
                x._accumulate(g, own=True)
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


def _probs_t(k, q, mask_diagonal, mx=None, sm=None):
    """Pᵀ = softmax over keys of the transposed logits k qᵀ (..., key, query),
    with each query's logit max and exp sum it was normalised by.

    Given a forward's `mx` and `sm`, Pᵀ is rebuilt from them: the same float
    ops on the same values, so bit for bit the forward's Pᵀ.
    """
    pt = np.matmul(k, np.swapaxes(q, -1, -2))
    *lead, m, n = pt.shape
    if mask_diagonal:
        pt.reshape(*lead, n * n)[..., ::n + 1] = -np.inf
    if mx is None:
        mx = np.max(pt, axis=-2, keepdims=True)
    pt -= mx
    np.exp(pt, out=pt)
    if sm is None:
        sm = np.matmul(np.ones((1, m), dtype=pt.dtype), pt)
    pt /= sm
    return pt, mx, sm


def _heads(x, n_heads):
    """The (..., heads, n, d_head) view of a (..., n, heads * d_head) array."""
    *lead, n, d = x.shape
    return np.swapaxes(x.reshape(*lead, n, n_heads, d // n_heads), -3, -2)


def _merge_heads(x):
    """`_heads` undone: a view, or a copy for the one-tile forward's output."""
    x = np.swapaxes(x, -3, -2)
    return x.reshape(*x.shape[:-2], -1)


def _attention_rows(k, q, v, mask_diagonal, scale, o=None, mx=None, sm=None):
    """The output P v and each query's logit max and exp sum (the backward
    rebuilds Pᵀ from them), into `o`, `mx` and `sm` when they are given; the
    query is scaled here, a tile at a time."""
    pt, tmx, tsm = _probs_t(k, q * scale, mask_diagonal)
    if mx is not None:
        mx[...], sm[...] = tmx, tsm
    return np.matmul(np.swapaxes(pt, -1, -2), v, out=o), tmx, tsm


def _attention_out(k, q, v, mask_diagonal, scale):
    lead = np.broadcast_shapes(k.shape[:-2], q.shape[:-2], v.shape[:-2])
    dt = np.result_type(k, q)
    stat = np.empty((*lead, 1, q.shape[-2]), dtype=dt)
    o = np.empty((*lead[:-1], q.shape[-2], lead[-1], v.shape[-1]), dtype=np.result_type(dt, v))
    return np.swapaxes(o, -3, -2), stat, stat.copy()  # heads views merge for free


def _attention_grad_rows(g, o, mx, sm, q, k, v, mask_diagonal, scale, wanted, dv=None,
                         dq=None, dk=None):
    """The gradients of v, q and k, each where `wanted` asks for it, on the
    rebuilt Pᵀ; q's is that of the scaled query, which the caller scales."""
    if dv is None and dq is None and dk is None:
        dv, dq, dk = _attention_grad_out(g, o, mx, sm, q, k, v, mask_diagonal, scale, wanted)
    want_v, want_q, want_k = wanted
    q = q * scale
    pt = _probs_t(k, q, mask_diagonal, mx, sm)[0]
    if want_v:
        np.matmul(pt, g, out=dv)
    if want_q or want_k:
        d = np.einsum("...i,...i->...", g, o)[..., None, :]
        dst = np.matmul(v, np.swapaxes(g, -1, -2))  # dPᵀ
        dst -= d
        dst *= pt  # dSᵀ, the gradient of the transposed logits
        if want_q:
            np.matmul(np.swapaxes(dst, -1, -2), k, out=dq)
        if want_k:
            np.matmul(dst, q, out=dk)
    return dv, dq, dk


def _attention_grad_out(g, o, mx, sm, q, k, v, mask_diagonal, scale, wanted):
    *lead, h = mx.shape[:-2]
    dt = np.result_type(g, mx, v)
    return tuple(np.swapaxes(np.empty((*lead, t.shape[-2], h, t.shape[-1]),
                                      dtype=np.result_type(dt, t)), -3, -2)
                 if want else None for t, want in zip((v, q, k), wanted))


def attention(q, k, v, n_heads, mask_diagonal=False, return_weights=False):
    """Multi-head softmax(q kᵀ / sqrt(d_head)) v as one node; returns (out, weights).

    q, k, v and out are (..., n, n_heads * d_head), split into heads as
    views.  `weights` is the (..., heads, query, key) probability array when
    `return_weights` asks for it, else None.  With the mask on, the query
    and key counts must be equal: -inf is written onto the diagonal of the
    logits before the max, as in :func:`softmax`, so self-weights come out
    exactly 0.  Leading axes broadcast (a batchless query is shared by all).

    The probabilities are formed transposed, keys on axis -2, so the max and
    sum over keys reduce over an outer axis, and a tile of batch entries at
    a time (`_split`'s tiles of at most `_TILE_BYTES` of Pᵀ), so each
    tile's n x n passes run in cache.  Each tile scales its own slice of
    the query by 1/sqrt(d_head), in both directions, so the node keeps the
    projected query as it came and no scaled copy of it.  The node keeps
    only each query's max and sum, not the probabilities: the backward
    rebuilds each tile's Pᵀ from them, bit for bit, and uses
    D = rowsum(dO * O) in place of the n x n softmax row-dot
    (FlashAttention, Dao et al. 2022).
    """
    q, k, v = _wrap(q), _wrap(k), _wrap(v)
    m, n = k.shape[-2], q.shape[-2]
    if mask_diagonal and (m != n or n < 2):
        raise AutodiffError(f"diagonal mask needs as many keys as queries, "
                            f"n >= 2, got {m} keys for {n} queries")
    scale = 1.0 / math.sqrt(q.shape[-1] // n_heads)
    qh, kh, vh = (_heads(a, n_heads) for a in (q.data, k.data, v.data))
    # the keys carry the batch axis; a batchless query is shared by every
    # slice.  The work is counted in elements of Pᵀ, `_TILE_BYTES` of them
    # at most in one tile
    size = math.prod(kh.shape[:-1]) * n
    most = _TILE_BYTES * len(kh) // (size * kh.itemsize)
    o, mx, sm = _split(_attention_rows, _attention_out, (kh, qh, vh), mask_diagonal, scale,
                       size=size, most=most)
    out = _make(_merge_heads(o), (q, k, v), "attention")
    weights = None
    if return_weights:
        weights = np.swapaxes(_probs_t(kh, qh * scale, mask_diagonal, mx, sm)[0], -1, -2)
    if _tracked(out):
        def _bw():
            dv, dq, dk = (None if g is None else _merge_heads(g) for g in _split(
                _attention_grad_rows, _attention_grad_out,
                (_heads(out.grad, n_heads), o, mx, sm, qh, kh, vh), mask_diagonal, scale,
                tuple(t.requires_grad for t in (v, q, k)), size=size, most=most))
            if dq is not None:  # scaled once summed down to the query's shape
                dq = _unbroadcast(dq, q.data.shape)
                dq *= scale
            for t, grad in zip((v, q, k), (dv, dq, dk)):
                if grad is not None:
                    t._accumulate(_unbroadcast(grad, t.data.shape), own=True)
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


def _avg(d, dtype):
    """The (d, 1) vector of 1/d that `_row_mean` multiplies by."""
    return np.full((d, 1), 1.0 / d, dtype=dtype)


def _row_mean(x, avg):
    """Mean over the last axis, kept as a length-1 axis: one GEMV with the
    (d, 1) vector `avg` of 1/d (faster than .mean(axis=-1) on short rows)."""
    return np.matmul(x.reshape(-1, x.shape[-1]), avg).reshape(*x.shape[:-1], 1)


def _norm_rows(x, r, gamma, beta, avg, xhat=None, inv=None, val=None):
    """Layer norm of x (+ r) over the last axis: the normalised rows x̂ that
    the backward reads, each row's reciprocal std and the output x̂ γ + β."""
    if r is not None:
        xhat = np.add(x, r, out=xhat)
    elif xhat is None:
        xhat = x.copy()
    else:
        xhat[...] = x
    xhat -= _row_mean(xhat, avg)
    sq = np.multiply(xhat, xhat)
    rinv = _row_mean(sq, avg)
    del sq
    rinv += _LN_EPS
    np.sqrt(rinv, out=rinv)
    np.reciprocal(rinv, out=rinv)
    if inv is None:
        inv = rinv
    else:
        inv[...] = rinv
    xhat *= inv
    val = np.multiply(xhat, gamma, out=val)
    val += beta
    return xhat, inv, val


def _norm_stats_out(xhat, gamma, beta, avg):
    """x̂ with the row reciprocal stds and the output to go with it."""
    inv = np.empty((*xhat.shape[:-1], 1), dtype=np.result_type(xhat, avg))
    return xhat, inv, np.empty(xhat.shape, dtype=np.result_type(xhat, inv, gamma, beta))


def _norm_out(x, r, gamma, beta, avg):
    shape = x.shape if r is None else np.broadcast_shapes(x.shape, r.shape)
    xhat = np.empty(shape, dtype=x.dtype if r is None else np.result_type(x, r))
    return _norm_stats_out(xhat, gamma, beta, avg)


def _norm_grad_rows(g, xhat, inv, gamma, avg, dx=None):
    """Layer norm's input gradient from the output gradient g:
    (ĝ - mean(ĝ) - x̂ mean(ĝ x̂)) / std with ĝ = g γ."""
    dx = np.multiply(g, gamma, out=dx)
    m1 = _row_mean(dx, avg)
    t = np.multiply(dx, xhat)
    m2 = _row_mean(t, avg)
    np.multiply(xhat, m2, out=t)
    dx -= m1
    dx -= t
    dx *= inv
    return dx


def _norm_grad_out(g, xhat, inv, gamma, avg):
    return (np.empty(g.shape, dtype=np.result_type(g, gamma)),)


def _gamma_grad(g, xhat, shape):
    return _unbroadcast(np.multiply(g, xhat), shape)


def _norm_grad(g, xhat, inv, gamma, beta, avg, inputs):
    """The gradient of the normalised sum from the output gradient g, or
    None when none of `inputs` (Tensors or None) wants it; gamma's and
    beta's gradients are claimed beside its tiles."""
    jobs = _jobs(_grad_job(gamma, _gamma_grad, g, xhat, gamma.data.shape),
                 _grad_job(beta, _unbroadcast, g, beta.data.shape))
    wanted = any(t is not None and t.requires_grad for t in inputs)
    return _split(_norm_grad_rows if wanted else None, _norm_grad_out, (g, xhat, inv), gamma.data,
                  avg, beside=jobs)


def layer_norm(a, gamma, beta, residual=None):
    """Normalize `a` (plus `residual`, when given) over the last axis, then
    scale and shift.

    The sum `residual + a` is formed in the node's working buffer and both
    addends get its gradient (summed down to a batchless addend's shape).  A
    constant vector normalizes to zeros (the `_LN_EPS` floor keeps the
    reciprocal finite), so the output is just `beta`.  Each direction is one kernel
    over `_split`'s tiles of batch entries, with the row means inside as
    GEMVs over the tile's rows; the backward computes gamma's and beta's
    gradients beside the input gradient's tiles.  The model runs the same
    kernels inside the Add & Norm forms of :func:`linear` and :func:`ffn`;
    this node is what they are tested against.
    """
    a, gamma, beta = _wrap(a), _wrap(gamma), _wrap(beta)
    inputs = (a,) if residual is None else (_wrap(residual), a)
    avg = _avg(a.shape[-1], a.dtype)
    if residual is None:
        addends = (a.data, None)
    else:  # the addend with the batch axis first (addition commutes bit for bit)
        r = inputs[0].data
        addends = (r, a.data) if r.ndim >= a.ndim else (a.data, r)
    xhat, inv, val = _split(_norm_rows, _norm_out, addends, gamma.data, beta.data, avg)
    out = _make(val, (*inputs, gamma, beta), "layer_norm")
    if _tracked(out):
        def _bw():
            dx = _norm_grad(out.grad, xhat, inv, gamma, beta, avg, inputs)
            if dx is not None:
                _share(dx, inputs)
        out._backward = _bw
    return out


def _keep_mask(shape, dtype, rate, rng):
    """The boolean keep mask of inverted dropout: one uniform draw from `rng`.

    It is rng.random(shape, dtype) >= rate, drawn in that dtype (float64 for
    any other), and leaves `rng` in the same state.  For a PCG64 generator
    the mask is read straight off the raw 64-bit words, which skips the
    floats: numpy makes a float64 of a word as (word >> 11) * 2**-53, and a
    float32 of each 32-bit half, low half first, as (half >> 8) * 2**-24, so
    the test becomes an integer compare against the rate scaled up and
    rounded up.  A float32 draw with an odd count, or with a half-word left
    over from an earlier draw, takes the float path.
    """
    if not 0.0 <= rate < 1.0:
        raise AutodiffError(f"dropout rate {rate} outside [0, 1)")
    draw_dtype = dtype if dtype in (np.float32, np.float64) else np.float64
    bitgen = rng.bit_generator
    count = math.prod(shape)
    if type(bitgen) is np.random.PCG64 and sys.byteorder == "little":
        if draw_dtype == np.float64:
            words = bitgen.random_raw(count)
            words >>= 11
            return (words >= math.ceil(rate * 2.0 ** 53)).reshape(shape)
        if count % 2 == 0 and not bitgen.state["has_uint32"]:
            words = bitgen.random_raw(count // 2)
            if count:  # the float path leaves the last high half in the state
                state = bitgen.state
                state["uinteger"] = int(words[-1] >> 32)
                bitgen.state = state
            halves = words.view(np.uint32)
            halves >>= 8
            return (halves >= math.ceil(float(np.float32(rate)) * 2.0 ** 24)).reshape(shape)
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
