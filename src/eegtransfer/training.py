"""Optimization loops: Adam, contrastive pretraining, few-shot calibration.

Pretraining optimizes the encoder and projection head on two augmented views
of each batch; the classifier is never touched.  Calibration attaches a
fresh classifier and fine-tunes it together with the encoder on a handful of
labeled samples, early-stopping on a held-back validation split; the
projection head is never touched.  Everything is seed-deterministic: one
seed fixes initialization, shuffling, augmentation, dropout and splits.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import model as m
from .augment import AugmentConfig, make_views
from .autodiff import ParameterSet
from .config import ModelConfig, TrainConfig
from .dsp import stack_samples
from .losses import contrastive_loss, cross_entropy, softmax_probs
from .montage import ChannelMontage

VALIDATION_FRACTION = 0.2
SOURCE_CALIBRATION_K = 20  # per-class draw when no target samples are allowed
INFERENCE_CHUNK = 512  # samples per no-grad encoder pass


class TrainError(ValueError):
    pass


# -- optimizer ----------------------------------------------------------------

@dataclass
class AdamState:
    """Bias-corrected Adam with decoupled weight decay.

    The decay multiplies parameters by (1 - lr * weight_decay) before the
    Adam delta, so a zero-gradient step shrinks weights by exactly that
    factor and a zero-decay, zero-gradient step is the identity.
    """

    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.lr <= 0 or not 0 < self.beta1 < 1 or not 0 < self.beta2 < 1:
            raise TrainError("invalid Adam hyperparameters")


def adam_step(params: ParameterSet, state: AdamState, names=None) -> None:
    """One update over `names` (default: all) from the stored gradients."""
    names = params.names() if names is None else names
    state.step += 1
    t = state.step
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    for name in names:
        p = params[name]
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if g.shape != p.data.shape:
            raise TrainError(f"gradient shape mismatch for {name}")
        if not np.all(np.isfinite(g)):
            raise TrainError(f"non-finite gradient for {name}")
        if state.weight_decay:
            p.data *= (1.0 - state.lr * state.weight_decay)
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        mom = state.m[name]
        vel = state.v[name]
        mom *= state.beta1
        mom += (1.0 - state.beta1) * g
        vel *= state.beta2
        vel += (1.0 - state.beta2) * (g * g)
        m_hat = mom / bc1
        v_hat = vel / bc2
        p.data -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)


# -- pretraining ----------------------------------------------------------------

@dataclass
class PretrainResult:
    params: m.DtaParameters
    epoch_losses: list


def _progress(log, msg):
    if log:
        print(msg, file=sys.stderr, flush=True)


def pretrain(bank, montage: ChannelMontage, mconf: ModelConfig,
             tconf: TrainConfig, aconf: AugmentConfig, log=False) -> PretrainResult:
    """Contrastive pretraining of encoder + projector on a sample bank.

    Per epoch: seeded shuffle, fixed-size batches (partial batch dropped for
    batch-norm stability), two augmented views, diagonal-masked encoding with
    dropout, train-mode projection, pairwise contrastive loss at the default
    temperature, Adam update.  Parameters are float32.
    """
    if not bank.samples:
        raise TrainError("cannot pretrain on an empty bank")
    feats, labels = stack_samples(bank.samples)
    if len(np.unique(labels)) < 2:
        raise TrainError("pretraining needs at least 2 labels (no negative pairs)")
    batch_size = tconf.pretrain.batch_size
    if len(labels) < batch_size:
        raise TrainError(
            f"bank has {len(labels)} samples, fewer than one batch of {batch_size}")

    s_init, s_shuffle, s_augment, s_dropout = np.random.SeedSequence(
        tconf.seed).spawn(4)
    dta = m.init_parameters(mconf, seed=s_init, dtype=np.float32)
    rng_shuffle = np.random.default_rng(s_shuffle)
    rng_augment = np.random.default_rng(s_augment)
    rng_dropout = np.random.default_rng(s_dropout)

    opt = AdamState(lr=tconf.pretrain.lr, weight_decay=tconf.weight_decay)
    train_names = dta.encoder_names() + dta.projector_names()
    pos = montage.positions
    n_batches = len(labels) // batch_size

    epoch_losses = []
    for epoch in range(tconf.pretrain.epochs):
        perm = rng_shuffle.permutation(len(labels))
        batch_losses = []
        for b in range(n_batches):
            idx = perm[b * batch_size:(b + 1) * batch_size]
            batch_labels = labels[idx]
            view_a, view_b = make_views(feats[idx], batch_labels, aconf, rng_augment)
            dta.params.zero_grad()
            # one pass over both views; batch-norm statistics span the pair
            both = np.concatenate([view_a, view_b], axis=0)
            enc = m.encode(both, pos, dta, mask_diagonal=True, rng=rng_dropout)
            z = m.project(enc, dta, train=True, rng=rng_dropout)
            z_a = ad.narrow(z, 0, batch_size)
            z_b = ad.narrow(z, batch_size, batch_size)
            loss = contrastive_loss(z_a, z_b, batch_labels, batch_labels)
            loss.backward()
            adam_step(dta.params, opt, train_names)
            batch_losses.append(float(loss.data))
        epoch_losses.append(float(np.mean(batch_losses)))
        _progress(log, f"pretrain epoch {epoch + 1}/{tconf.pretrain.epochs} "
                       f"loss {epoch_losses[-1]:.4f}")
    return PretrainResult(params=dta, epoch_losses=epoch_losses)


# -- calibration ----------------------------------------------------------------

@dataclass
class CalibrationResult:
    params: m.DtaParameters
    best_epoch: int
    epochs_run: int
    val_accuracy: float
    history: list  # (epoch loss, validation accuracy) per epoch


def _stratified_split(labels, n_classes, rng):
    """80/20 fit/validation indices with at least one of each class held out."""
    fit_idx, val_idx = [], []
    for c in range(n_classes):
        members = np.flatnonzero(labels == c)
        if members.size == 0:
            raise TrainError(f"class {c} has no calibration samples")
        if members.size < 2:
            raise TrainError(
                f"class {c} has {members.size} sample(s); need >= 2 to split")
        members = rng.permutation(members)
        n_val = max(1, int(round(VALIDATION_FRACTION * members.size)))
        n_val = min(n_val, members.size - 1)
        val_idx.extend(members[:n_val].tolist())
        fit_idx.extend(members[n_val:].tolist())
    return np.array(sorted(fit_idx)), np.array(sorted(val_idx))


def evaluate_accuracy(dta: m.DtaParameters, feats, labels,
                      montage: ChannelMontage) -> float:
    """Fraction of correct test-mode predictions over a feature stack."""
    preds = predict_batch(dta, feats, montage)[0]
    return float(np.mean(preds == np.asarray(labels)))


def calibrate(pretrained: m.DtaParameters, labeled, montage: ChannelMontage,
              tconf: TrainConfig, seed=None, log=False) -> CalibrationResult:
    """Few-shot fine-tuning of the encoder plus a fresh classifier.

    The labeled set is split 80/20 (stratified) into fit and validation;
    training stops once validation accuracy has not improved for `patience`
    epochs and the best-validation snapshot is returned.  Every step encodes
    with the diagonal mask off (test-phase behavior); dropout fires in the
    fit steps only, as in any training pass.
    """
    if len(labeled) == 0:
        raise TrainError("empty calibration set")
    cfg = pretrained.config
    feats, labels = stack_samples(labeled)
    present = set(labels.tolist())
    missing = [c for c in range(cfg.n_classes) if c not in present]
    if missing:
        raise TrainError(f"calibration set is missing classes {missing}")

    entropy = tconf.seed if seed is None else seed
    if not isinstance(entropy, np.random.SeedSequence):
        entropy = np.random.SeedSequence(entropy)
    s_clf, s_split, s_batch, s_dropout = entropy.spawn(4)
    dta = pretrained.copy()
    m.reinit_classifier(dta, s_clf)
    fit_idx, val_idx = _stratified_split(labels, cfg.n_classes, np.random.default_rng(s_split))
    rng_batch = np.random.default_rng(s_batch)
    rng_dropout = np.random.default_rng(s_dropout)

    train_names = dta.classifier_names() + dta.encoder_names()
    opt = AdamState(lr=tconf.calibrate.lr, weight_decay=tconf.weight_decay)
    pos = montage.positions
    batch_size = tconf.calibrate.batch_size

    best = (-1.0, 0, None)
    history = []
    epochs_run = 0
    for epoch in range(1, tconf.calibrate.epochs + 1):
        epochs_run = epoch
        perm = rng_batch.permutation(fit_idx.size)
        losses = []
        for start in range(0, fit_idx.size, batch_size):  # keep-all batches
            idx = fit_idx[perm[start:start + batch_size]]
            dta.params.zero_grad()
            enc = m.encode(feats[idx], pos, dta, rng=rng_dropout)
            loss = cross_entropy(m.classify(enc, dta), labels[idx])
            loss.backward()
            adam_step(dta.params, opt, train_names)
            losses.append(float(loss.data))
        val_acc = evaluate_accuracy(dta, feats[val_idx], labels[val_idx], montage)
        history.append((float(np.mean(losses)), val_acc))
        if val_acc > best[0]:
            best = (val_acc, epoch, dta.copy())
        _progress(log, f"calibrate epoch {epoch} loss {history[-1][0]:.4f} "
                       f"val {val_acc:.3f}")
        if epoch - best[1] >= tconf.patience:
            break
    return CalibrationResult(params=best[2], best_epoch=best[1],
                             epochs_run=epochs_run, val_accuracy=best[0],
                             history=history)


# -- prediction ----------------------------------------------------------------

def encode_in_chunks(dta: m.DtaParameters, feats, montage: ChannelMontage, head):
    """Test-mode encoding of a (N, channels, bands) feature stack under
    no_grad, INFERENCE_CHUNK samples at a time.  `head(q_final, dta)` turns
    each chunk's encoder output into an array; the arrays come back
    concatenated along their first axis, in chunk order."""
    feats = np.asarray(feats)
    if feats.ndim != 3 or feats.shape[1] != len(montage):
        raise TrainError(
            f"features must be (N, {len(montage)}, bands), got {feats.shape}")
    if feats.shape[0] == 0:
        raise TrainError("no samples to encode")
    pos = montage.positions
    with ad.no_grad():
        return np.concatenate([head(m.encode(feats[i:i + INFERENCE_CHUNK], pos, dta), dta)
                               for i in range(0, feats.shape[0], INFERENCE_CHUNK)])


def _class_probs(q_final, dta):
    return softmax_probs(m.classify(q_final, dta).data)


def predict_batch(dta: m.DtaParameters, feats, montage: ChannelMontage):
    """Test-mode argmax labels and softmax probabilities for a feature stack."""
    probs = encode_in_chunks(dta, feats, montage, _class_probs)
    return probs.argmax(axis=1), probs


def predict(dta: m.DtaParameters, sample, montage: ChannelMontage):
    """Class index and probability vector for one sample (deterministic)."""
    de = np.asarray(sample.de if hasattr(sample, "de") else sample)
    if de.shape[0] != len(montage):
        raise TrainError(f"sample has {de.shape[0]} channels, montage {len(montage)}")
    labels, probs = predict_batch(dta, de[None, :, :], montage)
    return int(labels[0]), probs[0]
