"""Training-time feature augmentation and contrastive view construction.

Two transforms operate on (channels x bands) feature matrices: convex sample
mixing restricted to same-label partners (so every augmented sample keeps an
unambiguous label) makes the first contrastive view, random channel zeroing
the second.  All randomness flows through an explicit numpy Generator, so
views are reproducible and callers own RNG partitioning across workers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checks import check_fields


class AugmentError(ValueError):
    pass


@dataclass(frozen=True)
class AugmentConfig:
    mixup_alpha: float = 0.2     # Beta(alpha, alpha) mixing coefficient
    mask_prob: float = 0.2       # per-channel zeroing probability

    def __post_init__(self):
        check_fields(self, float, "positive", "mixup_alpha", error=AugmentError)
        check_fields(self, float, "non-negative", "mask_prob", error=AugmentError)
        if self.mask_prob >= 1:
            raise AugmentError(f"mask_prob must be in [0, 1), got {self.mask_prob}")


def mixup(x_i, x_j, lam):
    """lam * x_i + (1 - lam) * x_j, elementwise."""
    x_i = np.asarray(x_i)
    x_j = np.asarray(x_j)
    if x_i.shape != x_j.shape:
        raise AugmentError(f"shape mismatch: {x_i.shape} vs {x_j.shape}")
    if not 0.0 <= lam <= 1.0:
        raise AugmentError(f"mixing coefficient {lam} outside [0, 1]")
    return lam * x_i + (1.0 - lam) * x_j


def mask_channels(x, mask):
    """Zero the rows of x where mask is 0; rows with mask 1 are bit-identical."""
    x = np.asarray(x)
    mask = np.asarray(mask)
    if mask.shape != (x.shape[0],):
        raise AugmentError(f"mask length {mask.shape} != {x.shape[0]} channels")
    return x * mask[:, None].astype(x.dtype)


def draw_channel_mask(n_channels, prob, rng):
    """0/1 channel mask with P(zero) = prob; the all-zero mask is resampled."""
    while True:
        mask = (rng.random(n_channels) >= prob).astype(np.int8)
        if mask.any():
            return mask


def _apply_mixup(feats, labels, alpha, rng):
    out = np.empty_like(feats)
    by_label = {}
    for idx, lab in enumerate(labels):
        by_label.setdefault(int(lab), []).append(idx)
    for i in range(feats.shape[0]):
        pool = [j for j in by_label[int(labels[i])] if j != i]
        if not pool:
            out[i] = feats[i]  # lone sample of its label: identity fallback
            continue
        j = pool[int(rng.integers(len(pool)))]
        lam = float(rng.beta(alpha, alpha))
        out[i] = mixup(feats[i], feats[j], lam)
    return out


def _apply_mask(feats, prob, rng):
    out = np.empty_like(feats)
    for i in range(feats.shape[0]):
        out[i] = mask_channels(feats[i], draw_channel_mask(feats.shape[1], prob, rng))
    return out


def make_views(feats, labels, config: AugmentConfig, rng):
    """Build the two contrastive views of a (N, channels, bands) feature stack.

    Returns (view_a, view_b), index-aligned with `feats` and both carrying
    its `labels`: view_a is the same-label mixup, view_b the channel-masked
    stack.  Both draw from `rng`, mixup first.
    """
    feats = np.asarray(feats, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if len(feats) == 0:
        raise AugmentError("empty batch")
    if labels.shape != (len(feats),):
        raise AugmentError(f"{len(feats)} samples but labels of shape {labels.shape}")
    view_a = _apply_mixup(feats, labels, config.mixup_alpha, rng)
    view_b = _apply_mask(feats, config.mask_prob, rng)
    return view_a, view_b
