"""Optimizer algebra, pretraining/calibration loops, prediction contracts."""

import dataclasses

import numpy as np
import pytest

from eegtransfer import autodiff as ad
from eegtransfer import evaluation as E
from eegtransfer import model as M
from eegtransfer import training as T
from eegtransfer.augment import AugmentConfig
from eegtransfer.autodiff import ParameterSet
from eegtransfer.config import ModelConfig, StageConfig, TrainConfig
from eegtransfer.data_io import gen_synthetic
from eegtransfer.config import SynthSpec
from eegtransfer.dsp import stack_samples

TINY_MODEL = ModelConfig(n_layers=2, d_model=8, n_heads=2, ffn_hidden=16,
                         n_channels=8, n_bands=5, proj_dims=(16, 32, 16),
                         clf_hidden=(8, 8), n_classes=3, init_scale=0.02)

TINY_TRAIN = TrainConfig(seed=7,
                         pretrain=StageConfig(batch_size=16, epochs=3, lr=1e-3),
                         calibrate=StageConfig(batch_size=16, epochs=12, lr=1e-3),
                         patience=5, k_per_class=4)

TINY_SYNTH = SynthSpec(n_subjects=3, n_classes=3, n_channels=8, trials_per_subject=3,
                       samples_per_trial=8, seed=7)


@pytest.fixture(scope="module")
def tiny_bank():
    return gen_synthetic(TINY_SYNTH)


@pytest.fixture(scope="module")
def tiny_pretrained(tiny_bank):
    return T.pretrain(tiny_bank, tiny_bank.montage, TINY_MODEL, TINY_TRAIN,
                      AugmentConfig()).params


@pytest.fixture(scope="module")
def tiny_calibrated(tiny_bank, tiny_pretrained):
    labeled = [s for s in tiny_bank.samples if s.subject_id == 0]
    return T.calibrate(tiny_pretrained, labeled, tiny_bank.montage,
                       TINY_TRAIN).params


class TestAdam:
    def make(self, **kw):
        ps = ParameterSet()
        t = ps.add("w", np.array([1.0, -2.0, 3.0]))
        return ps, t

    def test_zero_gradient_without_decay_is_identity(self):
        ps, t = self.make()
        t.grad = np.zeros(3)
        before = t.data.copy()
        T.adam_step(ps, T.AdamState(lr=0.1))
        assert np.array_equal(t.data, before)

    def test_pure_decay_shrinks_by_factor(self):
        ps, t = self.make()
        t.grad = np.zeros(3)
        state = T.AdamState(lr=0.1, weight_decay=0.5)
        before = t.data.copy()
        T.adam_step(ps, state)
        assert np.allclose(t.data, before * (1 - 0.1 * 0.5), atol=1e-15)
        T.adam_step(ps, state)
        assert np.allclose(t.data, before * (1 - 0.1 * 0.5) ** 2, atol=1e-15)

    def test_first_step_is_lr_times_sign(self):
        ps, t = self.make()
        g = np.array([0.3, -2.0, 1e-4])
        t.grad = g.copy()
        before = t.data.copy()
        T.adam_step(ps, T.AdamState(lr=0.01))
        delta = t.data - before
        # bias-corrected first step: -lr * g / (|g| + eps) ~ -lr * sign(g)
        assert np.allclose(delta, -0.01 * np.sign(g), rtol=1e-3)

    def test_non_finite_gradient_rejected(self):
        ps, t = self.make()
        t.grad = np.array([1.0, np.nan, 0.0])
        with pytest.raises(T.TrainError):
            T.adam_step(ps, T.AdamState(lr=0.1))

    def test_selected_names_only(self):
        ps = ParameterSet()
        a = ps.add("a", np.ones(2))
        b = ps.add("b", np.ones(2))
        a.grad = np.ones(2)
        b.grad = np.ones(2)
        T.adam_step(ps, T.AdamState(lr=0.1), names=["a"])
        assert not np.array_equal(a.data, np.ones(2))
        assert np.array_equal(b.data, np.ones(2))


class TestPretrain:
    def test_bitwise_deterministic(self, tiny_bank):
        r1 = T.pretrain(tiny_bank, tiny_bank.montage, TINY_MODEL, TINY_TRAIN,
                        AugmentConfig())
        r2 = T.pretrain(tiny_bank, tiny_bank.montage, TINY_MODEL, TINY_TRAIN,
                        AugmentConfig())
        assert r1.epoch_losses == r2.epoch_losses
        for name in r1.params.params.names():
            assert np.array_equal(r1.params.params[name].data,
                                  r2.params.params[name].data)

    def test_loss_trace_length_and_finite(self, tiny_bank):
        r = T.pretrain(tiny_bank, tiny_bank.montage, TINY_MODEL, TINY_TRAIN,
                       AugmentConfig())
        assert len(r.epoch_losses) == TINY_TRAIN.pretrain.epochs
        assert all(np.isfinite(v) for v in r.epoch_losses)

    def test_classifier_untouched_by_pretraining(self, tiny_bank):
        r = T.pretrain(tiny_bank, tiny_bank.montage, TINY_MODEL, TINY_TRAIN,
                       AugmentConfig())
        fresh = M.init_parameters(TINY_MODEL,
                                  seed=np.random.SeedSequence(TINY_TRAIN.seed).spawn(4)[0],
                                  dtype=np.float32)
        for name in r.params.classifier_names():
            assert np.array_equal(r.params.params[name].data,
                                  fresh.params[name].data)

    def test_single_label_bank_rejected(self, tiny_bank):
        single = tiny_bank.filter(lambda s: s.label == 0)
        with pytest.raises(T.TrainError, match="label"):
            T.pretrain(single, tiny_bank.montage, TINY_MODEL, TINY_TRAIN,
                       AugmentConfig())

    def test_empty_bank_rejected(self, tiny_bank):
        empty = tiny_bank.filter(lambda s: False)
        with pytest.raises(T.TrainError):
            T.pretrain(empty, tiny_bank.montage, TINY_MODEL, TINY_TRAIN,
                       AugmentConfig())


class TestCalibrate:
    @pytest.fixture()
    def pretrained(self, tiny_pretrained):
        return tiny_pretrained

    def labeled(self, tiny_bank, subject=0):
        return [s for s in tiny_bank.samples if s.subject_id == subject]

    def test_deterministic(self, tiny_bank, pretrained):
        a = T.calibrate(pretrained, self.labeled(tiny_bank), tiny_bank.montage,
                        TINY_TRAIN)
        b = T.calibrate(pretrained, self.labeled(tiny_bank), tiny_bank.montage,
                        TINY_TRAIN)
        assert a.best_epoch == b.best_epoch and a.epochs_run == b.epochs_run
        for name in a.params.params.names():
            assert np.array_equal(a.params.params[name].data,
                                  b.params.params[name].data)

    def test_missing_class_rejected(self, tiny_bank, pretrained):
        partial = [s for s in self.labeled(tiny_bank) if s.label != 1]
        with pytest.raises(T.TrainError, match="missing"):
            T.calibrate(pretrained, partial, tiny_bank.montage, TINY_TRAIN)

    def test_single_sample_class_cannot_split(self, tiny_bank, pretrained):
        by_label = {}
        for s in self.labeled(tiny_bank):
            by_label.setdefault(s.label, []).append(s)
        labeled = by_label[0] + by_label[1] + by_label[2][:1]
        with pytest.raises(T.TrainError, match="split"):
            T.calibrate(pretrained, labeled, tiny_bank.montage, TINY_TRAIN)

    def test_projector_untouched_by_calibration(self, tiny_bank, pretrained):
        cal = T.calibrate(pretrained, self.labeled(tiny_bank), tiny_bank.montage,
                          TINY_TRAIN)
        for name in pretrained.projector_names():
            assert np.array_equal(cal.params.params[name].data,
                                  pretrained.params[name].data)

    def test_calibration_fine_tunes_encoder_and_classifier(self, tiny_bank, pretrained):
        cal = T.calibrate(pretrained, self.labeled(tiny_bank), tiny_bank.montage,
                          TINY_TRAIN)
        for name in pretrained.encoder_names() + pretrained.classifier_names():
            assert not np.array_equal(cal.params.params[name].data,
                                      pretrained.params[name].data), name

    def test_early_stopping_returns_best_not_last(self, tiny_bank, pretrained,
                                                  monkeypatch):
        # inject a known-degrading validation schedule and capture snapshots
        schedule = [0.5, 0.9, 0.4, 0.3, 0.2, 0.1, 0.1]
        seen = []

        def scripted(dta, feats, labels, montage, batch_size=512):
            seen.append(dta.params["clf.fc3.b"].data.copy())
            return schedule[min(len(seen) - 1, len(schedule) - 1)]

        monkeypatch.setattr(T, "evaluate_accuracy", scripted)
        fast = TrainConfig(seed=7, pretrain=TINY_TRAIN.pretrain,
                           calibrate=StageConfig(16, 12, 1e-3), patience=3,
                           k_per_class=4)
        cal = T.calibrate(pretrained, self.labeled(tiny_bank), tiny_bank.montage,
                          fast)
        assert cal.best_epoch == 2
        assert cal.epochs_run == 5  # stopped after patience epochs without gain
        assert cal.val_accuracy == 0.9
        # returned parameters are the epoch-2 snapshot
        assert np.array_equal(cal.params.params["clf.fc3.b"].data, seen[1])

    def test_calibrate_encodes_unmasked_with_dropout_in_fit_steps_only(
            self, tiny_bank, pretrained, monkeypatch):
        calls = []
        phase = ["fit"]
        encode, evaluate = M.encode, T.evaluate_accuracy

        def spy(de, pos, dta, mask_diagonal=False, rng=None, **kw):
            calls.append((phase[0], mask_diagonal, rng is not None))
            return encode(de, pos, dta, mask_diagonal=mask_diagonal, rng=rng, **kw)

        def validate(*args, **kwargs):
            phase[0] = "val"
            try:
                return evaluate(*args, **kwargs)
            finally:
                phase[0] = "fit"

        monkeypatch.setattr(M, "encode", spy)
        monkeypatch.setattr(T, "evaluate_accuracy", validate)
        short = StageConfig(batch_size=16, epochs=2, lr=1e-3)
        tconf = dataclasses.replace(TINY_TRAIN, calibrate=short, patience=2)
        cal = T.calibrate(pretrained, self.labeled(tiny_bank), tiny_bank.montage, tconf)
        # fit steps draw dropout, validation does not; nothing is masked
        assert {c for c in calls if c[0] == "fit"} == {("fit", False, True)}
        assert {c for c in calls if c[0] == "val"} == {("val", False, False)}
        calls.clear()
        phase[0] = "predict"
        feats = np.stack([s.de for s in self.labeled(tiny_bank)])
        T.predict_batch(cal.params, feats, tiny_bank.montage)
        assert calls and calls == [("predict", False, False)] * len(calls)


class TestPredict:
    @pytest.fixture()
    def model(self, tiny_calibrated):
        return tiny_calibrated

    def test_probabilities_sum_to_one(self, tiny_bank, model):
        label, probs = T.predict(model, tiny_bank.samples[0], tiny_bank.montage)
        assert probs.shape == (3,)
        assert probs.sum() == pytest.approx(1.0, abs=1e-6)
        assert label == int(np.argmax(probs))

    def test_identical_samples_identical_outputs(self, tiny_bank, model):
        s = tiny_bank.samples[5]
        l1, p1 = T.predict(model, s, tiny_bank.montage)
        l2, p2 = T.predict(model, s, tiny_bank.montage)
        assert l1 == l2
        assert np.array_equal(p1, p2)

    def test_zero_classifier_gives_uniform(self, tiny_bank):
        dta = M.init_parameters(TINY_MODEL, seed=0)
        _, probs = T.predict(dta, tiny_bank.samples[0], tiny_bank.montage)
        assert np.allclose(probs, 1.0 / 3.0, atol=1e-12)

    def test_channel_mismatch_rejected(self, tiny_bank, model):
        with pytest.raises(T.TrainError):
            T.predict(model, np.zeros((5, 5)), tiny_bank.montage)

    def test_empty_stack_rejected(self, tiny_bank, model):
        with pytest.raises(T.TrainError, match="no samples"):
            T.predict_batch(model, np.zeros((0, 8, 5)), tiny_bank.montage)

    def test_inference_chunks_cover_every_sample_once_in_order(self, tiny_bank, model,
                                                               monkeypatch):
        samples = tiny_bank.samples[:17]
        feats, _ = stack_samples(samples)
        dta = model.astype(np.float64)
        encode, seen = M.encode, []

        def spy(de, pos, dta, **kw):
            seen.append(np.array(de))
            return encode(de, pos, dta, **kw)

        monkeypatch.setattr(T, "INFERENCE_CHUNK", 7)
        monkeypatch.setattr(M, "encode", spy)
        labels, probs = T.predict_batch(dta, feats, tiny_bank.montage)
        reps = E.channel_representations(dta, samples, tiny_bank.montage)
        assert [len(c) for c in seen] == [7, 7, 3] * 2
        assert np.array_equal(np.concatenate(seen[:3]), feats)
        assert np.array_equal(np.concatenate(seen[3:]), feats)

        monkeypatch.setattr(M, "encode", encode)
        assert probs.dtype == np.float64
        for s, label, p in zip(samples, labels, probs):
            one_label, one_probs = T.predict(dta, s, tiny_bank.montage)
            assert one_label == label
            assert np.allclose(one_probs, p)
        with ad.no_grad():
            per_sample = [encode(f, tiny_bank.montage.positions, dta).data[0]
                          for f in feats]
        assert np.allclose(reps, np.mean(per_sample, axis=0))
