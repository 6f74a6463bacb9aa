"""Contrastive pair loss over projected views, plus classifier cross-entropy.

The contrastive objective takes the (2N, dim) stack of two views' projections
of one labelled batch, view A in rows 0..N-1 and view B in rows N..2N-1, as
SimCLR writes its pair loss.  It scores every (row of view A, row of view B)
pair: cosine similarity at temperature `DEFAULT_TEMPERATURE` goes through a
binary cross-entropy with a label-equality target, in the overflow-safe
logits form softplus(x) - x*y.  Scoring the full N x N pair matrix lets one
sample be similar to several samples at once.  Cross-entropy takes a
(B, C) batch of logits and its B labels.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

DEFAULT_TEMPERATURE = 0.5
NORM_FLOOR = 1e-30


class LossError(ValueError):
    pass


def cosine_similarity(u, v) -> float:
    """u.v / (|u||v|); mathematical range [-1, 1], no clamping."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise LossError("cosine similarity undefined for zero-norm input")
    return float(u.dot(v) / (nu * nv))


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def _row_normalize(z):
    norms_sq = ad.tsum(z * z, axis=-1, keepdims=True)
    if np.any(norms_sq.data <= NORM_FLOOR):
        raise LossError("zero-norm projection row")
    return z * ad.power(norms_sq, -0.5)


def contrastive_loss(z, labels) -> Tensor:
    """Mean binary cross-entropy over temperature-scaled pairwise cosines.

    `z` is the (2N, dim) stack of both views' projections, the second view
    from row N on; both views carry `labels` (N,).  The rows are normalised
    once and the halves narrowed from the result.  Targets are 1 where the
    pair's labels match and 0 otherwise.  Returns a scalar Tensor; gradients
    flow to `z` when it is a Tensor that requires grad.
    """
    z = _as_tensor(z)
    labels = np.asarray(labels, dtype=np.int64)
    n = labels.size
    if labels.ndim != 1 or z.ndim != 2 or n < 1 or z.shape[0] != 2 * n:
        raise LossError(f"need a (2N, dim) stack of two views for {labels.shape} labels, "
                        f"got {z.shape}")

    unit = _row_normalize(z)
    x = ad.matmul(ad.narrow(unit, 0, n), ad.swapaxes(ad.narrow(unit, n, n), -1, -2))
    x = x * (1.0 / DEFAULT_TEMPERATURE)
    y = (labels[:, None] == labels[None, :]).astype(x.data.dtype)
    # softplus(x) - x*y == -[y ln(sig(x)) + (1-y) ln(1 - sig(x))], stably
    return ad.tsum(ad.softplus(x) + x * Tensor(-y)) * (1.0 / y.size)


def cross_entropy(logits, labels) -> Tensor:
    """Mean over a batch of -ln softmax(logits)[label], via log-sum-exp.

    `logits` is (B, C) and `labels` holds B class indices; returns a scalar
    Tensor.
    """
    t = _as_tensor(logits)
    labels = np.asarray(labels, dtype=np.int64)
    if t.ndim != 2 or labels.shape != t.shape[:1]:
        raise LossError(f"need (B, C) logits and B labels, got {t.shape} and {labels.shape}")
    n, c = t.shape
    if np.any(labels < 0) or np.any(labels >= c):
        raise LossError(f"label out of range for {c} classes")
    neg_onehot = np.zeros((n, c), dtype=t.data.dtype)
    neg_onehot[np.arange(n), labels] = -1.0
    return ad.tsum(ad.logsumexp(t, axis=-1) + ad.tsum(t * Tensor(neg_onehot), axis=-1)) * (1.0 / n)


def softmax_probs(logits) -> np.ndarray:
    """Plain numpy softmax for prediction output."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)
