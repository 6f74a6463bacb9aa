"""The three benchmark workloads: set-up, one timed unit, checks, summary.

Each workload drives the public ``eegtransfer`` API the way the CLI does and
never reaches into the program.  A unit is the piece of work the timed loop
repeats: one ``training.pretrain`` epoch (5 steps) for ``pretrain``, one
calibrate-then-serve cycle for ``new_subject``, one pass over every raw
trial plus the bank round trip for ``extract``.  Every unit of a run redoes
the same seeded work, so each must reproduce the first bit for bit.
"""

from __future__ import annotations

import hashlib
import math
import os
import shutil

import numpy as np

from tracer import clock, path_bytes

MB = float(1 << 20)


def percentile_ms(seconds, q):
    return 1e3 * float(np.percentile(seconds, q))


class Checks:
    """Counts checked operations; a failure is kept with its description."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


def _sha(*parts):
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else np.ascontiguousarray(p).tobytes())
    return h.hexdigest()


def _params_digest(dta):
    return _sha(*(t.data for _, t in sorted(dta.params.items())),
                *(v for _, v in sorted(dta.bn_state.items())))


class Workload:
    """Shared bookkeeping: checks, digests and the (reference or tiny) configs."""

    unit_name = "unit"

    def __init__(self, et, seed, tiny, tmp, checks):
        self.et = et
        self.seed = seed
        self.tiny = tiny
        self.tmp = tmp
        self.checks = checks
        self.digest = None
        self.setup_digest = None

    def same_digest(self, digest, what):
        if self.digest is None:
            self.digest = digest
        self.checks.check(digest == self.digest, f"{what} differs from the first unit")

    def same_setup(self, digest, what):
        if self.setup_digest is None:
            self.setup_digest = digest
        self.checks.check(digest == self.setup_digest, f"{what} differs between set-ups")

    def trace_extra(self):
        return {"training.calibrate.epochs_run": 0, "training.calibrate.best_epoch": 0}

    def warm_up(self, state):
        """Untimed work before the timed loop; nothing by default."""

    def model_config(self):
        if self.tiny:
            return self.et.config.ModelConfig(n_layers=1, d_model=8, n_heads=2, ffn_hidden=8,
                                              proj_dims=(16, 16, 8), clf_hidden=(8, 8))
        return self.et.config.ModelConfig()

    def feature_spec(self):
        if self.tiny:
            return self.et.config.SynthSpec(n_subjects=3, trials_per_subject=3,
                                            samples_per_trial=8, seed=self.seed)
        return self.et.config.SynthSpec(seed=self.seed)


class Pretrain(Workload):
    """Contrastive pretraining with the reference config on the default bank."""

    unit_name = "step"

    def __init__(self, *args):
        super().__init__(*args)
        cfg = self.et.config
        batch = 32 if self.tiny else 256
        self.mconf = self.model_config()
        self.tconf = cfg.TrainConfig(seed=self.seed,
                                     pretrain=cfg.StageConfig(batch, 1, 1e-4))
        self.aconf = self.et.augment.AugmentConfig()
        self.step_s: list[float] = []
        self.call_s = 0.0
        self.samples = 0
        self.losses: list[float] = []

    def setup(self):
        bank = self.et.data_io.gen_synthetic(self.feature_spec())
        self.same_setup(_sha(bank.feature_array()[0]), "feature bank")
        return bank

    def warm_up(self, bank):
        """One step on the first batch: the first step of a process pays
        for growing the heap to the size of a training graph, once."""
        first = self.et.data_io.SampleBank(bank.dataset, bank.classes, bank.bands, bank.montage,
                                           bank.samples[:self.tconf.pretrain.batch_size])
        self.et.training.pretrain(first, bank.montage, self.mconf, self.tconf, self.aconf)

    def unit(self, bank):
        training = self.et.training
        adam_step = training.adam_step
        marks = []

        def clocked(*args, **kwargs):  # step clock: stamps the end of each step
            out = adam_step(*args, **kwargs)
            marks.append(clock())
            return out
        training.adam_step = clocked
        try:
            t0 = clock()
            result = training.pretrain(bank, bank.montage, self.mconf, self.tconf, self.aconf)
            t1 = clock()
        finally:
            training.adam_step = adam_step
        self.call_s += t1 - t0
        self.step_s.extend(np.diff([t0, *marks]).tolist())
        self.samples += len(marks) * self.tconf.pretrain.batch_size
        self.losses = result.epoch_losses
        self.checks.check(all(math.isfinite(v) for v in result.epoch_losses),
                          f"non-finite pretrain loss {result.epoch_losses}")
        self.same_digest(_sha(np.array(result.epoch_losses), _params_digest(result.params).encode()),
                         "pretrain loss/parameters")
        return len(marks)

    def summary(self):
        rate = self.samples / self.call_s
        e2e = {"throughput": rate,
               "latency_ms_mean": 1e3 * float(np.mean(self.step_s)),
               "latency_ms_p90": percentile_ms(self.step_s, 90)}
        named = {"pretrain_samples_per_s": (rate, "1/s"),
                 "pretrain_loss": (float(np.mean(self.losses)), "nats"),
                 "pretrain_step_ms_p50": (percentile_ms(self.step_s, 50), "ms"),
                 "pretrain_steps": (len(self.step_s), "count")}
        return e2e, named


class NewSubject(Workload):
    """Few-shot calibration to one held-out subject, then serving it."""

    unit_name = "cycle"
    PREDICT_PASSES = 8  # closed-loop passes over the held-out samples per cycle

    def __init__(self, *args):
        super().__init__(*args)
        cfg = self.et.config
        self.mconf = self.model_config()
        spec = self.feature_spec()
        self.subject = self.seed % spec.n_subjects
        if self.tiny:
            self.tconf = cfg.TrainConfig(seed=self.seed, k_per_class=4, patience=5,
                                         pretrain=cfg.StageConfig(32, 1, 1e-4),
                                         calibrate=cfg.StageConfig(128, 10, 1e-3))
        else:
            # calibration lr 1e-4, not the reference 1e-5: the set-up checkpoint
            # has one pretraining epoch, and at 1e-5 some subjects (seed 5, 8)
            # stay at chance accuracy
            self.tconf = cfg.TrainConfig(seed=self.seed,
                                         pretrain=cfg.StageConfig(256, 1, 1e-4),
                                         calibrate=cfg.StageConfig(128, 100, 1e-4))
        self.calib_s = 0.0
        self.epochs = 0
        self.predict_s: list[float] = []
        self.batch_s = 0.0
        self.batch_n = 0
        self.accuracy = None
        self.cal = None

    def setup(self):
        et = self.et
        bank = et.data_io.gen_synthetic(self.feature_spec())
        source = bank.filter(lambda s: s.subject_id != self.subject)
        pre = et.training.pretrain(source, bank.montage, self.mconf, self.tconf,
                                   et.augment.AugmentConfig())
        path = os.path.join(self.tmp, "pretrained.ckpt")
        et.data_io.save_checkpoint(pre.params, path)
        dta, _ = et.data_io.load_checkpoint(path, dtype=np.float32)
        target_idx = [i for i, s in enumerate(bank.samples) if s.subject_id == self.subject]
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, self.subject, 1]))
        labeled, _ = et.evaluation.draw_labeled(
            [bank.samples[i] for i in target_idx], self.tconf.k_per_class,
            self.mconf.n_classes, rng)
        chosen = {id(s) for s in labeled}
        held_out = [i for i in target_idx if id(bank.samples[i]) not in chosen]
        feats, labels = bank.feature_array()
        with open(path, "rb") as fh:
            self.same_setup(_sha(fh.read()), "pretrained checkpoint")
        return bank, dta, labeled, held_out, feats, labels

    def unit(self, state):
        et = self.et
        bank, dta, labeled, held_out, feats, labels = state
        t0 = clock()
        cal = et.training.calibrate(dta, labeled, bank.montage, self.tconf,
                                    seed=np.random.SeedSequence([self.seed, self.subject, 2]))
        self.calib_s += clock() - t0
        self.epochs += cal.epochs_run
        self.cal = cal
        # the predict CLI path: the calibrated checkpoint is saved and reloaded
        path = os.path.join(self.tmp, "calibrated.ckpt")
        et.data_io.save_checkpoint(cal.params, path)
        served, _ = et.data_io.load_checkpoint(path)

        t0 = clock()
        batch_labels, batch_probs = et.training.predict_batch(served, feats, bank.montage)
        self.batch_s += clock() - t0
        self.batch_n += len(feats)

        # one caller, closed loop: the next sample is sent once a label is back
        predict = et.training.predict
        for _ in range(1 if self.tiny else self.PREDICT_PASSES):
            for i in held_out:
                t0 = clock()
                label, probs = predict(served, bank.samples[i], bank.montage)
                self.predict_s.append(clock() - t0)
                self.checks.check(label == batch_labels[i] and abs(probs.sum() - 1.0) <= 1e-6,
                                  f"predict() of sample {i} disagrees with predict_batch")

        self.accuracy = float(np.mean(batch_labels[held_out] == labels[held_out]))
        chance = 1.0 / self.mconf.n_classes
        self.checks.check(self.accuracy > chance,
                          f"calibrated accuracy {self.accuracy:.3f} not above chance")
        self.same_digest(_sha(batch_labels, batch_probs, _params_digest(served).encode()),
                         "calibrated predictions")
        return 1

    def summary(self):
        rate = self.epochs / self.calib_s
        e2e = {"throughput": rate,
               "latency_ms_mean": 1e3 * float(np.mean(self.predict_s)),
               "latency_ms_p90": percentile_ms(self.predict_s, 90)}
        named = {"calibrate_epochs_per_s": (rate, "1/s"),
                 "accuracy": (self.accuracy, "ratio"),
                 "predict_ms_p50": (percentile_ms(self.predict_s, 50), "ms"),
                 "predict_ms_p90": (e2e["latency_ms_p90"], "ms"),
                 "predict_ms_p99": (percentile_ms(self.predict_s, 99), "ms"),
                 "predict_calls": (len(self.predict_s), "count"),
                 "predict_batch_samples_per_s": (self.batch_n / self.batch_s, "1/s"),
                 "calibrate_epochs_run": (self.cal.epochs_run, "count"),
                 "calibrate_best_epoch": (self.cal.best_epoch, "count")}
        return e2e, named

    def trace_extra(self):
        return {"training.calibrate.epochs_run": self.cal.epochs_run,
                "training.calibrate.best_epoch": self.cal.best_epoch}


class Extract(Workload):
    """Raw EEG to smoothed DE features, trial by trial, then the bank round trip."""

    unit_name = "trial"

    def __init__(self, *args):
        super().__init__(*args)
        self.trial_s: list[float] = []
        self.eeg_s = 0.0
        self.extract_s = 0.0
        self.io_s = 0.0
        self.io_bytes = 0

    def setup(self):
        cfg = self.et.config
        if self.tiny:
            spec = cfg.SynthSpec(n_subjects=1, trials_per_subject=2, samples_per_trial=10,
                                 seed=self.seed, mode="timeseries")
        else:
            spec = cfg.SynthSpec(seed=self.seed, mode="timeseries")
        raw = self.et.data_io.gen_synthetic(spec)
        self.same_setup(_sha(*(t.data for t in raw.raw_trials)), "raw bank")
        return raw

    def unit(self, raw):
        data_io = self.et.data_io
        samples = []
        for trial in raw.raw_trials:
            one = data_io.SampleBank(raw.dataset, raw.classes, raw.bands, raw.montage,
                                     [], [trial])
            t0 = clock()
            feat = data_io.extract_bank_features(one, preprocess=True, reject_segments=True,
                                                 smooth=True)
            dt = clock() - t0
            self.trial_s.append(dt)
            self.extract_s += dt
            self.eeg_s += trial.n_samples / trial.fs
            de = np.stack([s.de for s in feat.samples])
            self.checks.check(bool(np.all(np.isfinite(de))),
                              f"non-finite feature in trial {trial.trial_id}")
            samples.extend(feat.samples)

        bank = data_io.SampleBank(feat.dataset, raw.classes, raw.bands, raw.montage,
                                  samples, raw.raw_trials)
        out = os.path.join(self.tmp, "bank")
        t0 = clock()
        data_io.write_bank(bank, out)
        back = data_io.read_bank(out)
        self.io_s += clock() - t0
        self.io_bytes += 2 * path_bytes(out)
        self.checks.check(data_io.bank_equal(bank, back), "bank round trip is not bit-exact")
        shutil.rmtree(out)
        self.same_digest(_sha(*(s.de for s in samples)), "extracted features")
        return len(raw.raw_trials)

    def summary(self):
        rate = self.eeg_s / (self.extract_s + self.io_s)
        e2e = {"throughput": rate,
               "latency_ms_mean": 1e3 * float(np.mean(self.trial_s)),
               "latency_ms_p90": percentile_ms(self.trial_s, 90)}
        named = {"extract_eeg_s_per_s": (self.eeg_s / self.extract_s, "s/s"),
                 "bank_io_MB_per_s": (self.io_bytes / MB / self.io_s, "MB/s"),
                 "trial_ms_p50": (percentile_ms(self.trial_s, 50), "ms"),
                 "trials": (len(self.trial_s), "count")}
        return e2e, named


WORKLOADS = {"pretrain": Pretrain, "new_subject": NewSubject, "extract": Extract}
