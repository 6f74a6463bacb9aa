"""Contrastive pair loss over projected views, plus classifier cross-entropy.

The contrastive objective scores every (row of view A, row of view B) pair:
temperature-scaled cosine similarity goes through a binary cross-entropy
with a label-equality target, in the overflow-safe logits form
softplus(x) - x*y.  Scoring the full N x N pair matrix lets one sample be
similar to several samples at once.
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


def contrastive_loss(z_a, z_b, labels_a, labels_b, tau=DEFAULT_TEMPERATURE) -> Tensor:
    """Mean binary cross-entropy over temperature-scaled pairwise cosines.

    `z_a` and `z_b` are matching (N, dim) projected views with their class
    labels.  Targets are 1 where the pair's labels match and 0 otherwise.
    Returns a scalar Tensor; gradients flow to z_a and z_b when they are
    Tensors that require grad.
    """
    if tau <= 0:
        raise LossError(f"temperature must be positive, got {tau}")
    z_a = _as_tensor(z_a)
    z_b = _as_tensor(z_b)
    labels_a = np.asarray(labels_a, dtype=np.int64)
    labels_b = np.asarray(labels_b, dtype=np.int64)
    if z_a.shape != z_b.shape or z_a.ndim != 2 or z_a.shape[0] < 1:
        raise LossError(f"views must be matching (N, dim), got {z_a.shape} and {z_b.shape}")
    if len(labels_a) != z_a.shape[0] or len(labels_b) != z_b.shape[0]:
        raise LossError("label count does not match view rows")

    za = _row_normalize(z_a)
    zb = _row_normalize(z_b)
    x = ad.matmul(za, ad.swapaxes(zb, -1, -2)) * (1.0 / tau)
    y = (labels_a[:, None] == labels_b[None, :]).astype(x.data.dtype)
    # softplus(x) - x*y == -[y ln(sig(x)) + (1-y) ln(1 - sig(x))], stably
    return ad.tsum(ad.softplus(x) + x * Tensor(-y)) * (1.0 / y.size)


def cross_entropy(logits, label) -> Tensor:
    """-ln softmax(logits)[label] via log-sum-exp; accepts a batch.

    `logits` is (C,) with an int label or (B, C) with B labels; returns the
    scalar mean over the batch.
    """
    t = _as_tensor(logits)
    squeeze = t.ndim == 1
    if squeeze:
        t = ad.reshape(t, (1, t.shape[0]))
        labels = np.array([label], dtype=np.int64)
    else:
        labels = np.asarray(label, dtype=np.int64)
    n, c = t.shape
    if labels.shape != (n,):
        raise LossError(f"expected {n} labels, got {labels.shape}")
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
