"""Sample mixing, channel masking, and contrastive view construction."""

import numpy as np
import pytest

from eegtransfer import augment as ag
from eegtransfer.dsp import FeatureSample, stack_samples


def test_mixup_endpoints_and_midpoint():
    x = np.array([[2.0, 0.0]])
    y = np.array([[0.0, 2.0]])
    assert np.array_equal(ag.mixup(x, y, 1.0), x)
    assert np.array_equal(ag.mixup(x, y, 0.0), y)
    assert np.array_equal(ag.mixup(x, y, 0.5), np.array([[1.0, 1.0]]))


def test_mixup_validates_inputs():
    with pytest.raises(ag.AugmentError):
        ag.mixup(np.zeros((2, 2)), np.zeros((3, 2)), 0.5)
    with pytest.raises(ag.AugmentError):
        ag.mixup(np.zeros((2, 2)), np.zeros((2, 2)), 1.5)


def test_mask_channels_zeroes_selected_rows():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(5, 4))
    mask = np.array([1, 1, 1, 0, 1])
    out = ag.mask_channels(x, mask)
    assert np.all(out[3] == 0.0)
    for c in (0, 1, 2, 4):
        assert np.array_equal(out[c], x[c])
    assert np.array_equal(ag.mask_channels(x, np.ones(5)), x)


def test_mask_channels_idempotent_for_fixed_mask():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(6, 3))
    mask = np.array([1, 0, 1, 0, 1, 1])
    once = ag.mask_channels(x, mask)
    assert np.array_equal(ag.mask_channels(once, mask), once)


def test_mask_length_mismatch():
    with pytest.raises(ag.AugmentError):
        ag.mask_channels(np.zeros((4, 2)), np.ones(3))


def test_all_zero_mask_never_drawn():
    rng = np.random.default_rng(2)
    for _ in range(10_000):
        assert ag.draw_channel_mask(62, 0.2, rng).any()
    # even at a brutal drop rate the resampling rule holds
    rng = np.random.default_rng(3)
    for _ in range(2_000):
        assert ag.draw_channel_mask(3, 0.9, rng).any()


def make_batch(labels, rng):
    return [FeatureSample(0, 0, i, 0, lab, rng.normal(size=(4, 5)))
            for i, lab in enumerate(labels)]


def reference_views(feats, labels, cfg, rng):
    """The earlier transform-list pipeline with its one recipe (view a:
    mixup, view b: mask), written out draw for draw."""
    va = feats.copy()
    for i in range(len(feats)):
        pool = [j for j in range(len(feats)) if labels[j] == labels[i] and j != i]
        if pool:
            j = pool[int(rng.integers(len(pool)))]
            lam = float(rng.beta(cfg.mixup_alpha, cfg.mixup_alpha))
            va[i] = lam * feats[i] + (1.0 - lam) * feats[j]
    vb = feats.copy()
    for i in range(len(feats)):
        keep = np.zeros(feats.shape[1], dtype=np.int8)
        while not keep.any():
            keep = (rng.random(feats.shape[1]) >= cfg.mask_prob).astype(np.int8)
        vb[i] = feats[i] * keep[:, None].astype(feats.dtype)
    return va, vb


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_make_views_bitwise_equal_to_reference(seed):
    rng = np.random.default_rng(100 + seed)
    batch = make_batch([0, 1, 0, 2, 1, 0, 1, 1], rng)  # label 2 has no partner
    cfg = ag.AugmentConfig(mixup_alpha=0.3 + 0.1 * seed, mask_prob=0.25)
    raw, labels = stack_samples(batch)
    want_a, want_b = reference_views(raw, labels, cfg, np.random.default_rng(seed))
    va, vb = ag.make_views(raw, labels, cfg, np.random.default_rng(seed))
    assert np.array_equal(va, want_a) and np.array_equal(vb, want_b)


def test_make_views_single_sample_per_label_falls_back():
    rng = np.random.default_rng(5)
    batch = make_batch([0, 1, 2], rng)
    raw, labels = stack_samples(batch)
    va, _ = ag.make_views(raw, labels, ag.AugmentConfig(), np.random.default_rng(0))
    assert np.array_equal(va, raw)


def test_make_views_mixup_stays_within_label():
    rng = np.random.default_rng(6)
    # construct label-dependent constants so any cross-label mixing is visible
    batch = [FeatureSample(0, 0, i, 0, lab, np.full((3, 2), float(lab)))
             for i, lab in enumerate([0, 0, 1, 1, 1])]
    feats, labels = stack_samples(batch)
    va, _ = ag.make_views(feats, labels, ag.AugmentConfig(), np.random.default_rng(1))
    for row, lab in zip(va, labels):
        assert np.allclose(row, float(lab))


def test_make_views_seeded_reproducibility():
    rng = np.random.default_rng(7)
    feats, labels = stack_samples(make_batch([0, 0, 1, 1, 2, 2], rng))
    cfg = ag.AugmentConfig()
    va1, vb1 = ag.make_views(feats, labels, cfg, np.random.default_rng(99))
    va2, vb2 = ag.make_views(feats, labels, cfg, np.random.default_rng(99))
    assert np.array_equal(va1, va2)
    assert np.array_equal(vb1, vb2)


def test_make_views_empty_batch():
    with pytest.raises(ag.AugmentError):
        ag.make_views(np.zeros((0, 4, 5)), [], ag.AugmentConfig(), np.random.default_rng(0))


def test_make_views_label_count_mismatch():
    with pytest.raises(ag.AugmentError):
        ag.make_views(np.zeros((3, 4, 5)), [0, 1], ag.AugmentConfig(), np.random.default_rng(0))


def test_augmentation_keeps_values_finite():
    rng = np.random.default_rng(8)
    feats, labels = stack_samples(make_batch([0, 0, 1, 1] * 4, rng))
    cfg = ag.AugmentConfig()
    for seed in range(20):
        va, vb = ag.make_views(feats, labels, cfg, np.random.default_rng(seed))
        assert np.all(np.isfinite(va))
        assert np.all(np.isfinite(vb))


def test_config_validation():
    with pytest.raises(ag.AugmentError):
        ag.AugmentConfig(mixup_alpha=0.0)
    with pytest.raises(ag.AugmentError):
        ag.AugmentConfig(mask_prob=1.0)
    for alpha in (float("inf"), float("nan")):
        with pytest.raises(ag.AugmentError, match="mixup_alpha"):
            ag.AugmentConfig(mixup_alpha=alpha)
    # wrong types fail naming the field; a bool is not a number
    for field in ("mixup_alpha", "mask_prob"):
        for value in ("x", True, False, None):
            with pytest.raises(ag.AugmentError, match=f"^{field} must be a .*finite number, got"):
                ag.AugmentConfig(**{field: value})
