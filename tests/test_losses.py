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


def views(z_a, z_b):
    """The (2N, dim) stack of two views' rows, as contrastive_loss takes it."""
    return np.concatenate([np.asarray(z_a, dtype=float), np.asarray(z_b, dtype=float)])


def two_rows(u, v, same_label):
    """Loss of a batch of two samples, labels 0 and 1.  View A holds u and
    w, view B v and w', with w and w' orthogonal to each other and to u and
    v; v sits in the row of u's label when `same_label`, else in the other.
    So the pair (u, v) scores with target `same_label`, and the other three
    pairs are orthogonal and add ln 2 each at any target."""
    v_row = [v, [0.0, 0.0, 1.0, 0.0]]
    a = [u, [0.0, 0.0, 0.0, 1.0]]
    b = v_row if same_label else v_row[::-1]
    return ls.contrastive_loss(views(a, b), np.array([0, 1]))


class TestContrastiveLoss:
    def test_identical_same_label(self):
        loss = ls.contrastive_loss(views([[1.0, 0.0]], [[1.0, 0.0]]), [0])
        # x = cos/tau = 2 -> -ln(sigmoid(2))
        assert float(loss.data) == pytest.approx(0.1269280, abs=1e-6)

    def test_orthogonal_same_label(self):
        loss = ls.contrastive_loss(views([[1.0, 0.0]], [[0.0, 1.0]]), [0])
        assert float(loss.data) == pytest.approx(math.log(2.0), abs=1e-6)

    def test_identical_different_label(self):
        # the identical pair scored with target 0, beside three ln 2 pairs
        loss = two_rows([1.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], False)
        assert float(loss.data) == pytest.approx((2.1269280 + 3 * math.log(2.0)) / 4, abs=1e-6)
        same = two_rows([1.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], True)
        assert float(same.data) == pytest.approx((0.1269280 + 3 * math.log(2.0)) / 4, abs=1e-6)

    def test_symmetry_under_view_swap(self):
        rng = np.random.default_rng(0)
        za, zb = rng.normal(size=(6, 8)), rng.normal(size=(6, 8))
        labels = rng.integers(0, 3, 6)
        ab = ls.contrastive_loss(views(za, zb), labels)
        ba = ls.contrastive_loss(views(zb, za), labels)
        assert float(ab.data) == pytest.approx(float(ba.data), abs=1e-12)

    def test_row_scale_invariance(self):
        rng = np.random.default_rng(1)
        z = rng.normal(size=(10, 8))
        labels = rng.integers(0, 2, 5)
        base = float(ls.contrastive_loss(z, labels).data)
        z2 = z.copy()
        z2[2] *= 37.5
        z2[7] *= 0.125
        scaled = float(ls.contrastive_loss(z2, labels).data)
        assert scaled == pytest.approx(base, abs=1e-9)

    def test_loss_decreases_as_positive_pair_aligns(self):
        zb = [[1.0, 0.0]]
        prev = None
        for angle in (1.5, 1.0, 0.5, 0.1):
            za = [[math.cos(angle), math.sin(angle)]]
            cur = float(ls.contrastive_loss(views(za, zb), [0]).data)
            if prev is not None:
                assert cur < prev
            prev = cur

    def test_full_pair_matrix_against_direct_sum(self):
        rng = np.random.default_rng(2)
        z = rng.normal(size=(8, 6))
        labels = rng.integers(0, 2, 4)
        got = float(ls.contrastive_loss(z, labels).data)
        total = 0.0
        for i in range(4):
            for j in range(4):
                x = ls.cosine_similarity(z[i], z[4 + j]) / ls.DEFAULT_TEMPERATURE
                y = 1.0 if labels[i] == labels[j] else 0.0
                p = 1.0 / (1.0 + math.exp(-x))
                total += -(y * math.log(p) + (1 - y) * math.log(1 - p))
        assert got == pytest.approx(total / 16.0, abs=1e-9)

    def test_zero_norm_row_rejected(self):
        for row in (0, 3):  # in either view
            z = np.ones((4, 2))
            z[row] = 0.0
            with pytest.raises(ls.LossError, match="zero-norm"):
                ls.contrastive_loss(z, [0, 1])

    @pytest.mark.parametrize("shape,labels", [
        ((5, 2), [0, 1]), ((4, 2), [0, 1, 0]), ((4, 2), [[0, 1]]), ((0, 2), []),
        ((4,), [0, 1])])
    def test_label_count_must_be_half_the_rows(self, shape, labels):
        with pytest.raises(ls.LossError, match="two views"):
            ls.contrastive_loss(np.ones(shape), labels)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        ps = ad.ParameterSet()
        ps.add("z", rng.normal(size=(8, 6)))
        labels = rng.integers(0, 2, 4)
        assert ad.grad_check(lambda: ls.contrastive_loss(ps["z"], labels), ps) < 1e-5


class TestCrossEntropy:
    def test_uniform_logits_give_log_c(self):
        loss = ls.cross_entropy(np.zeros((1, 3)), [1])
        assert float(loss.data) == pytest.approx(math.log(3.0), abs=1e-9)

    def test_confident_correct_class_saturates(self):
        logits = np.array([[40.0, 0.0, 0.0]])
        assert float(ls.cross_entropy(logits, [0]).data) < 1e-15

    def test_shift_invariance(self):
        rng = np.random.default_rng(5)
        logits = rng.normal(size=(1, 7))
        a = float(ls.cross_entropy(logits, [3]).data)
        b = float(ls.cross_entropy(logits + 123.456, [3]).data)
        assert a == pytest.approx(b, abs=1e-9)

    def test_batch_mean_matches_scalar_calls(self):
        rng = np.random.default_rng(6)
        logits = rng.normal(size=(4, 5))
        labels = np.array([0, 2, 4, 1])
        batch = float(ls.cross_entropy(logits, labels).data)
        singles = np.mean([float(ls.cross_entropy(logits[i:i + 1], labels[i:i + 1]).data)
                           for i in range(4)])
        assert batch == pytest.approx(singles, abs=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(ls.LossError, match="out of range"):
            ls.cross_entropy(np.zeros((1, 3)), [3])

    @pytest.mark.parametrize("shape,labels", [((3,), [1]), ((2, 3), [1]), ((2, 3), 1)])
    def test_logits_must_be_a_batch_with_one_label_a_row(self, shape, labels):
        with pytest.raises(ls.LossError, match="need \\(B, C\\) logits"):
            ls.cross_entropy(np.zeros(shape), labels)

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
