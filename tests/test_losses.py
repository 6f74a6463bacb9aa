"""Loss oracles: closed-form pair values, invariances, gradient fidelity."""

import math

import numpy as np
import pytest

from eegtransfer import autodiff as ad
from eegtransfer import losses as ls


class TestCosine:
    def test_parallel_orthogonal_and_known_angle(self):
        assert ls.cosine_similarity([1, 0], [1, 0]) == pytest.approx(1.0)
        assert ls.cosine_similarity([1, 0], [0, 1]) == pytest.approx(0.0)
        assert ls.cosine_similarity([1, 1], [1, 0]) == pytest.approx(
            1.0 / math.sqrt(2.0), abs=1e-7)

    def test_zero_norm_rejected(self):
        with pytest.raises(ls.LossError):
            ls.cosine_similarity([0, 0], [1, 0])

    def test_range_spans_negative_values(self):
        assert ls.cosine_similarity([1, 0], [-1, 0]) == pytest.approx(-1.0)


def single_pair(u, v, same_label, tau=0.5):
    labels_b = np.array([0]) if same_label else np.array([1])
    return ls.contrastive_loss(np.array([u], dtype=float), np.array([v], dtype=float),
                               np.array([0]), labels_b, tau)


class TestContrastiveLoss:
    def test_identical_same_label(self):
        loss = single_pair([1.0, 0.0], [1.0, 0.0], True)
        # x = cos/tau = 2 -> -ln(sigmoid(2))
        assert float(loss.data) == pytest.approx(0.1269280, abs=1e-6)

    def test_orthogonal_same_label(self):
        loss = single_pair([1.0, 0.0], [0.0, 1.0], True)
        assert float(loss.data) == pytest.approx(math.log(2.0), abs=1e-6)

    def test_identical_different_label(self):
        loss = single_pair([1.0, 0.0], [1.0, 0.0], False)
        assert float(loss.data) == pytest.approx(2.1269280, abs=1e-6)

    def test_symmetry_under_view_swap(self):
        rng = np.random.default_rng(0)
        za, zb = rng.normal(size=(6, 8)), rng.normal(size=(6, 8))
        la, lb = rng.integers(0, 3, 6), rng.integers(0, 3, 6)
        ab = ls.contrastive_loss(za, zb, la, lb)
        ba = ls.contrastive_loss(zb, za, lb, la)
        assert float(ab.data) == pytest.approx(float(ba.data), abs=1e-12)

    def test_row_scale_invariance(self):
        rng = np.random.default_rng(1)
        za, zb = rng.normal(size=(5, 8)), rng.normal(size=(5, 8))
        la, lb = rng.integers(0, 2, 5), rng.integers(0, 2, 5)
        base = float(ls.contrastive_loss(za, zb, la, lb).data)
        za2 = za.copy()
        za2[2] *= 37.5
        scaled = float(ls.contrastive_loss(za2, zb, la, lb).data)
        assert scaled == pytest.approx(base, abs=1e-9)

    def test_loss_decreases_as_positive_pair_aligns(self):
        zb = np.array([[1.0, 0.0]])
        labels = np.array([0])
        prev = None
        for angle in (1.5, 1.0, 0.5, 0.1):
            za = np.array([[math.cos(angle), math.sin(angle)]])
            cur = float(ls.contrastive_loss(za, zb, labels, labels).data)
            if prev is not None:
                assert cur < prev
            prev = cur

    def test_full_pair_matrix_against_direct_sum(self):
        rng = np.random.default_rng(2)
        za, zb = rng.normal(size=(4, 6)), rng.normal(size=(4, 6))
        la, lb = rng.integers(0, 2, 4), rng.integers(0, 2, 4)
        got = float(ls.contrastive_loss(za, zb, la, lb, 0.5).data)
        total = 0.0
        for i in range(4):
            for j in range(4):
                x = ls.cosine_similarity(za[i], zb[j]) / 0.5
                y = 1.0 if la[i] == lb[j] else 0.0
                p = 1.0 / (1.0 + math.exp(-x))
                total += -(y * math.log(p) + (1 - y) * math.log(1 - p))
        assert got == pytest.approx(total / 16.0, abs=1e-9)

    def test_zero_norm_row_rejected(self):
        za = np.array([[0.0, 0.0], [1.0, 0.0]])
        zb = np.ones((2, 2))
        with pytest.raises(ls.LossError):
            ls.contrastive_loss(za, zb, [0, 1], [0, 1])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        ps = ad.ParameterSet()
        ps.add("za", rng.normal(size=(4, 6)))
        ps.add("zb", rng.normal(size=(4, 6)))
        la = rng.integers(0, 2, 4)
        lb = rng.integers(0, 2, 4)

        def f():
            return ls.contrastive_loss(ps["za"], ps["zb"], la, lb)

        assert ad.grad_check(f, ps) < 1e-5

    def test_invalid_temperature(self):
        with pytest.raises(ls.LossError):
            ls.contrastive_loss(np.ones((1, 2)), np.ones((1, 2)), [0], [0], tau=0.0)


class TestCrossEntropy:
    def test_uniform_logits_give_log_c(self):
        loss = ls.cross_entropy(np.zeros(3), 1)
        assert float(loss.data) == pytest.approx(math.log(3.0), abs=1e-9)

    def test_confident_correct_class_saturates(self):
        logits = np.array([40.0, 0.0, 0.0])
        assert float(ls.cross_entropy(logits, 0).data) < 1e-15

    def test_shift_invariance(self):
        rng = np.random.default_rng(5)
        logits = rng.normal(size=7)
        a = float(ls.cross_entropy(logits, 3).data)
        b = float(ls.cross_entropy(logits + 123.456, 3).data)
        assert a == pytest.approx(b, abs=1e-9)

    def test_batch_mean_matches_scalar_calls(self):
        rng = np.random.default_rng(6)
        logits = rng.normal(size=(4, 5))
        labels = np.array([0, 2, 4, 1])
        batch = float(ls.cross_entropy(logits, labels).data)
        singles = np.mean([float(ls.cross_entropy(logits[i], labels[i]).data)
                           for i in range(4)])
        assert batch == pytest.approx(singles, abs=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(ls.LossError):
            ls.cross_entropy(np.zeros(3), 3)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        ps = ad.ParameterSet()
        ps.add("logits", rng.normal(size=(3, 4)))
        labels = np.array([1, 0, 3])
        assert ad.grad_check(lambda: ls.cross_entropy(ps["logits"], labels), ps) < 1e-6


def test_softmax_probs_sum_to_one():
    rng = np.random.default_rng(8)
    p = ls.softmax_probs(rng.normal(size=(5, 4)) * 20)
    assert np.allclose(p.sum(axis=-1), 1.0, atol=1e-12)
    assert np.all(p >= 0)
