"""Evaluation protocols and analyses.

Leave-one-subject-out transfer evaluation, class-separation diagnostics,
electrode-failure and noise robustness sweeps, channel-connectivity analysis
from learned representations, and feature export for external visualization.

Folds and sweep points are independent: with the same seed they produce the
same numbers whether run serially or in parallel, because every fold derives
its randomness from (seed, subject).
"""

from __future__ import annotations

import csv
import functools
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import model as m
from . import training as tr
from .augment import AugmentConfig
from .config import ModelConfig, TrainConfig
from .data_io import SampleBank, SplitProtocol, apply_split
from .dsp import stack_samples
from .montage import ChannelMontage
from .training import SOURCE_CALIBRATION_K

EDGE_THRESHOLD_STDS = 1.8


class EvalError(ValueError):
    pass


@dataclass
class EvalReport:
    protocol: str
    seed: int
    per_subject: list          # (subject_id, accuracy)
    details: dict = field(default_factory=dict)

    @property
    def accuracies(self):
        return np.array([a for _, a in self.per_subject], dtype=np.float64)

    @property
    def mean(self):
        return float(self.accuracies.mean())

    @property
    def std(self):
        # population std of the per-subject accuracy list
        return float(self.accuracies.std())


def draw_labeled(samples, k_per_class, n_classes, rng):
    """Seeded stratified draw of k samples per class; returns (chosen, rest)."""
    labels = np.array([s.label for s in samples])
    chosen_idx = []
    for c in range(n_classes):
        members = np.flatnonzero(labels == c)
        if members.size < k_per_class:
            raise EvalError(
                f"class {c} has {members.size} candidates, need {k_per_class}")
        pick = rng.choice(members, size=k_per_class, replace=False)
        chosen_idx.extend(pick.tolist())
    chosen_set = set(chosen_idx)
    chosen = [samples[i] for i in sorted(chosen_set)]
    rest = [samples[i] for i in range(len(samples)) if i not in chosen_set]
    return chosen, rest


def _losocv_fold(args):
    (bank, subject, mconf, tconf, aconf, protocol, from_scratch, log) = args
    source = bank.filter(lambda s: s.subject_id != subject)
    target = bank.filter(lambda s: s.subject_id == subject)

    if from_scratch:
        seq = np.random.SeedSequence([tconf.seed, subject, 3])
        start = m.init_parameters(mconf, seed=seq, dtype=np.float32)
        losses = []
    else:
        result = tr.pretrain(source, bank.montage, mconf, tconf, aconf, log=log)
        start = result.params
        losses = result.epoch_losses

    rng = np.random.default_rng(np.random.SeedSequence([tconf.seed, subject, 1]))
    if tconf.k_per_class == 0:
        # strictly subject-independent: calibration labels come from the
        # source subjects; the whole target set is the test set
        labeled, _ = draw_labeled(source.samples, SOURCE_CALIBRATION_K,
                                  mconf.n_classes, rng)
        test_samples = target.samples
    elif protocol is None:
        labeled, test_samples = draw_labeled(target.samples, tconf.k_per_class,
                                             mconf.n_classes, rng)
    else:
        train, test = apply_split(target, protocol)
        labeled, _ = draw_labeled(train.samples, tconf.k_per_class, mconf.n_classes, rng)
        test_samples = test.samples

    cal = tr.calibrate(start, labeled, bank.montage, tconf,
                       seed=np.random.SeedSequence([tconf.seed, subject, 2]), log=log)
    feats, labels = stack_samples(test_samples)
    acc = tr.evaluate_accuracy(cal.params, feats, labels, bank.montage)
    return {
        "subject": subject,
        "accuracy": acc,
        "pretrain_losses": losses,
        "calibration_best_epoch": cal.best_epoch,
        "calibration_epochs_run": cal.epochs_run,
        "calibration_val_accuracy": cal.val_accuracy,
    }


def losocv(bank: SampleBank, mconf: ModelConfig, tconf: TrainConfig,
           aconf: AugmentConfig, protocol: SplitProtocol | None = None,
           from_scratch=False, jobs=1, log=False) -> EvalReport:
    """Hold each subject out in turn: pretrain on the others, calibrate on a
    small labeled draw from the held-out subject (or on source data when
    k_per_class=0), test on the subject's remaining samples."""
    subjects = bank.subjects()
    if len(subjects) < 2:
        raise EvalError("leave-one-subject-out needs at least 2 subjects")
    args = [(bank, s, mconf, tconf, aconf, protocol, from_scratch, log)
            for s in subjects]
    if jobs > 1:
        # the fold processes share the CPUs: each splits its ops over its share
        share = max(1, len(os.sched_getaffinity(0)) // jobs)
        with ProcessPoolExecutor(max_workers=jobs, initializer=ad._set_workers,
                                 initargs=(share,)) as pool:
            folds = list(pool.map(_losocv_fold, args))
    else:
        folds = [_losocv_fold(a) for a in args]
    name = "losocv" if protocol is None else f"losocv+{protocol.name}"
    if from_scratch:
        name += "+from-scratch"
    return EvalReport(protocol=name, seed=tconf.seed,
                      per_subject=[(f["subject"], f["accuracy"]) for f in folds],
                      details={"folds": folds})


# -- separation diagnostics -----------------------------------------------------

def icd_ics(features, labels, alpha=2.0):
    """Mean pairwise embedding distance^alpha between and within classes.

    Returns (inter_class, intra_class) over unordered distinct pairs.  The
    names follow the geometry: inter grows and intra shrinks as classes
    separate.  Invariant under global rotation + translation of the cloud.
    """
    x = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    if x.ndim != 2 or x.shape[0] < 2:
        raise EvalError("need at least 2 feature rows")
    if len(np.unique(labels)) < 2:
        raise EvalError("inter-class distance undefined with a single class")
    sq = np.sum(x * x, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    np.fill_diagonal(d2, 0.0)
    d2 = np.maximum(d2, 0.0)
    powered = d2 if alpha == 2.0 else np.sqrt(d2) ** alpha
    same = labels[:, None] == labels[None, :]
    iu = np.triu_indices(x.shape[0], k=1)
    same_u = same[iu]
    vals = powered[iu]
    if not same_u.any():
        raise EvalError("no same-label pairs")
    inter = float(vals[~same_u].mean())
    intra = float(vals[same_u].mean())
    return inter, intra


# -- robustness sweeps -----------------------------------------------------------

def _nearest_working(montage: ChannelMontage, idx, failed):
    d = np.linalg.norm(montage.positions - montage.positions[idx], axis=1)
    d[idx] = np.inf
    for j in failed:
        d[j] = np.inf
    return int(np.argmin(d))


def apply_electrode_failure(feats, failed, montage: ChannelMontage, mode):
    """Zero the failed channels' features, or copy each failed channel's
    features from its nearest still-working channel."""
    out = np.array(feats, copy=True)
    if mode == "zero":
        out[:, list(failed), :] = 0.0
    elif mode == "neighbor":
        for i in failed:
            out[:, i, :] = feats[:, _nearest_working(montage, i, failed), :]
    else:
        raise EvalError(f"unknown failure mode {mode!r}")
    return out


def _sweep_stack(samples):
    if len(samples) == 0:
        raise EvalError("a robustness sweep needs at least one sample")
    return stack_samples(samples)


def electrode_failure_sweep(dta: m.DtaParameters, samples, montage: ChannelMontage,
                            m_list, mode, rng):
    """Accuracy after disabling `m` seeded-random channels, per m."""
    feats, labels = _sweep_stack(samples)
    n = len(montage)
    results = []
    for count in m_list:
        if not 0 <= count < n:
            raise EvalError(f"cannot fail {count} of {n} channels")
        if count == 0:
            acc = tr.evaluate_accuracy(dta, feats, labels, montage)
        else:
            failed = sorted(rng.choice(n, size=count, replace=False).tolist())
            broken = apply_electrode_failure(feats, failed, montage, mode)
            acc = tr.evaluate_accuracy(dta, broken, labels, montage)
        results.append((int(count), acc))
    return results


def noise_sweep(dta: m.DtaParameters, samples, montage: ChannelMontage,
                k_list, rng):
    """Accuracy with zero-mean Gaussian noise of variance k x the
    per-feature sample variance added to the features, per multiplier k."""
    feats, labels = _sweep_stack(samples)
    scale = np.sqrt(feats.var(axis=0))  # per (channel, band)
    results = []
    for k in k_list:
        if k <= 0:
            raise EvalError(f"noise multiplier must be positive, got {k}")
        noisy = feats + rng.standard_normal(feats.shape) * (np.sqrt(k) * scale)
        results.append((float(k), tr.evaluate_accuracy(dta, noisy, labels, montage)))
    return results


# -- connectivity -----------------------------------------------------------------

@dataclass
class ConnectivityResult:
    adjacency: np.ndarray          # (n, n) cosine matrix, symmetric
    retained: np.ndarray           # (n, n) bool edge mask, diagonal False
    degree_centrality: np.ndarray  # (n,) retained-degree / (n - 1)
    threshold: float               # mean + 1.8 std over off-diagonal entries


def channel_representations(dta: m.DtaParameters, samples, montage: ChannelMontage):
    """Per-channel final-layer representation averaged over samples (test mode)."""
    feats, _ = stack_samples(samples)
    chunk_sums = tr.encode_in_chunks(dta, feats, montage,
                                     lambda q, _: q.data.sum(axis=0, keepdims=True))
    return functools.reduce(np.add, chunk_sums) / feats.shape[0]


def connectivity_from_representations(reps) -> ConnectivityResult:
    reps = np.asarray(reps, dtype=np.float64)
    n = reps.shape[0]
    if n < 2:
        raise EvalError("connectivity needs at least 2 channels")
    norms = np.linalg.norm(reps, axis=1)
    if np.any(norms == 0.0):
        raise EvalError("zero-norm mean representation")
    unit = reps / norms[:, None]
    adj = unit @ unit.T
    adj = (adj + adj.T) / 2.0
    np.fill_diagonal(adj, 1.0)
    off = adj[~np.eye(n, dtype=bool)]
    threshold = float(off.mean() + EDGE_THRESHOLD_STDS * off.std())
    retained = adj > threshold
    np.fill_diagonal(retained, False)
    retained &= retained.T  # symmetric threshold on a symmetric matrix
    degree = retained.sum(axis=1) / (n - 1)
    return ConnectivityResult(adj, retained, degree.astype(np.float64), threshold)


def connectivity(dta: m.DtaParameters, samples, montage: ChannelMontage) -> ConnectivityResult:
    """Edges between channels whose learned representations point the same
    way: cosine adjacency thresholded at mean + 1.8 std (off-diagonal)."""
    if len(samples) == 0:
        raise EvalError("connectivity needs a non-empty evaluation set")
    return connectivity_from_representations(channel_representations(dta, samples, montage))


# -- feature export ----------------------------------------------------------------

def _projected(q_final, dta):
    return m.project(q_final, dta).data


def export_features(bank: SampleBank, path, encoded: m.DtaParameters | None = None,
                    calibrated: m.DtaParameters | None = None) -> None:
    """CSV of per-sample feature vectors by stage, for external embedding.

    Stages: `raw` (flattened channel x band features) always; `encoded` and
    `calibrated` (projection-head outputs under the respective parameters)
    when given.  Rows shorter than the widest stage leave trailing feature
    columns empty.  Re-export under a fixed model is bit-identical.
    """
    if len(bank.samples) == 0:
        raise EvalError("cannot export an empty bank")
    feats, _ = bank.feature_array()
    stages = [("raw", feats.reshape(feats.shape[0], -1))]
    for stage, dta in (("encoded", encoded), ("calibrated", calibrated)):
        if dta is not None:
            stages.append((stage, tr.encode_in_chunks(dta, feats, bank.montage, _projected)))
    width = max(mat.shape[1] for _, mat in stages)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["subject", "session", "trial", "window", "label", "stage"]
                        + [f"f{i}" for i in range(width)])
        for stage, mat in stages:
            for s, vec in zip(bank.samples, mat):
                row = [s.subject_id, s.session_id, s.trial_id, s.window_index,
                       s.label, stage]
                row += [f"{v:.9g}" for v in vec]
                row += [""] * (width - len(vec))
                writer.writerow(row)
