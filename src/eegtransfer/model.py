"""Channel-attention encoder with a diagonal mask and frozen key/value stream.

The encoder turns a (channels x bands) feature matrix into one d_model
vector per channel.  Three properties define it:

- the query stream starts from electrode-position encodings only, so with
  the mask on a channel's output row provably never depends on that
  channel's own input features;
- keys and values are computed once from position + source encodings and
  reused unchanged by every layer, so attention maps stay interpretable;
- the diagonal of the attention matrix is removed during contrastive
  pretraining (each channel is reconstructed from the other channels) and
  restored for calibration and prediction.

A projection head maps the encoder output into the contrastive space and a
small MLP head classifies it; both live in the same parameter record.
Parameters are immutable during evaluation, so concurrent read-only
inference is safe; training has a single writer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ParameterSet, Tensor
from .config import ModelConfig

BN_EPS = 1e-5
BN_MOMENTUM = 0.1
POS_TABLE_STD = 0.1


class ModelError(ValueError):
    pass


@dataclass
class EncoderOutput:
    q_final: Tensor                      # (B, n_channels, d_model)
    attention: list | None = None        # per layer: (B, heads, n, n)


class DtaParameters:
    """All learnable weights plus batch-norm running state and the config."""

    def __init__(self, config: ModelConfig, params: ParameterSet, bn_state: dict):
        self.config = config
        self.params = params
        self.bn_state = bn_state

    def encoder_names(self):
        return [n for n in self.params.names()
                if n.split(".")[0] in ("pos_embed", "src_embed", "kv")
                or n == "pos_table" or n.startswith("enc")]

    def projector_names(self):
        return [n for n in self.params.names() if n.startswith("proj.")]

    def classifier_names(self):
        return [n for n in self.params.names() if n.startswith("clf.")]

    def copy(self) -> "DtaParameters":
        return DtaParameters(self.config, self.params.copy(),
                             {k: v.copy() for k, v in self.bn_state.items()})

    def astype(self, dtype) -> "DtaParameters":
        return DtaParameters(self.config, self.params.astype(dtype),
                             {k: v.astype(dtype) for k, v in self.bn_state.items()})

    @property
    def dtype(self):
        return self.params["pos_table"].data.dtype


def _glorot(rng, fan_in, fan_out, scale):
    limit = scale * math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def _classifier_arrays(config: ModelConfig, rng) -> dict:
    """A fresh float64 classifier head: Glorot hidden layers drawn from `rng`
    (fc1 then fc2), zero biases and a zero output layer."""
    flat = config.n_channels * config.d_model
    h1, h2 = config.clf_hidden
    return {"clf.fc1.w": _glorot(rng, flat, h1, config.init_scale), "clf.fc1.b": np.zeros(h1),
            "clf.fc2.w": _glorot(rng, h1, h2, config.init_scale), "clf.fc2.b": np.zeros(h2),
            "clf.fc3.w": np.zeros((h2, config.n_classes)),
            "clf.fc3.b": np.zeros(config.n_classes)}


def init_parameters(config: ModelConfig, seed=0, dtype=np.float64) -> DtaParameters:
    """Fresh parameters; the final classifier layer starts at zero so a
    freshly attached head predicts uniformly."""
    rng = np.random.default_rng(seed)
    d = config.d_model
    s = config.init_scale
    ps = ParameterSet()

    def aff(name, fan_in, fan_out, bias=True):
        ps.add(f"{name}.w", _glorot(rng, fan_in, fan_out, s))
        if bias:
            ps.add(f"{name}.b", np.zeros(fan_out))

    aff("pos_embed.f1", 3, d)
    aff("pos_embed.f2", d, d)
    aff("src_embed.f1", config.n_bands, d)
    aff("src_embed.f2", d, d)
    ps.add("pos_table", rng.normal(0.0, POS_TABLE_STD * s, size=(config.n_channels, d)))
    # a key-projection bias shifts every logit in a row equally, which the
    # softmax cancels; leave the unidentifiable parameter out
    aff("kv.k", d, d, bias=False)
    aff("kv.v", d, d)
    for i in range(config.n_layers):
        aff(f"enc{i}.q", d, d)
        aff(f"enc{i}.out", d, d)
        ps.add(f"enc{i}.ln1.g", np.ones(d))
        ps.add(f"enc{i}.ln1.b", np.zeros(d))
        ps.add(f"enc{i}.ln2.g", np.ones(d))
        ps.add(f"enc{i}.ln2.b", np.zeros(d))
        aff(f"enc{i}.ffn.f1", d, config.ffn_hidden)
        aff(f"enc{i}.ffn.f2", config.ffn_hidden, d)

    flat = config.n_channels * d
    p1, p2, p3 = config.proj_dims
    # pre-batch-norm affines are bias-free; the BN shift parameter owns it
    aff("proj.fc1", flat, p1, bias=False)
    ps.add("proj.bn1.g", np.ones(p1))
    ps.add("proj.bn1.b", np.zeros(p1))
    aff("proj.fc2", p1, p2, bias=False)
    ps.add("proj.bn2.g", np.ones(p2))
    ps.add("proj.bn2.b", np.zeros(p2))
    aff("proj.fc3", p2, p3)

    for name, value in _classifier_arrays(config, rng).items():
        ps.add(name, value)

    bn_state = {
        "proj.bn1.mean": np.zeros(p1), "proj.bn1.var": np.ones(p1),
        "proj.bn2.mean": np.zeros(p2), "proj.bn2.var": np.ones(p2),
    }
    dta = DtaParameters(config, ps, bn_state)
    return dta.astype(dtype) if dtype != np.float64 else dta


def reinit_classifier(dta: DtaParameters, seed) -> None:
    """Fresh classifier head in place (hidden layers random, output zero)."""
    for name, value in _classifier_arrays(dta.config, np.random.default_rng(seed)).items():
        dta.params[name].data = value.astype(dta.dtype)


# -- building blocks ---------------------------------------------------------

def _affine(x, params, name):
    return ad.linear(x, params[f"{name}.w"], params[f"{name}.b"])


def _mlp_embed(x, params, name):
    """f2(ELU(f1(x))) as one ``ffn`` node: the row-wise two-layer embedding
    used for positions and source features."""
    return ad.ffn(x, params[f"{name}.f1.w"], params[f"{name}.f1.b"], params[f"{name}.f2.w"],
                  params[f"{name}.f2.b"], 0.0, None)


def embed_positions(pos_data, dta: DtaParameters) -> Tensor:
    """(n, 3) unit-norm coordinates -> (n, d_model) position encoding."""
    pos = np.asarray(pos_data, dtype=dta.dtype)
    if pos.ndim != 2 or pos.shape[1] != 3:
        raise ModelError(f"pos_data must be (n, 3), got {pos.shape}")
    return _mlp_embed(Tensor(pos), dta.params, "pos_embed")


def embed_source(de, dta: DtaParameters) -> Tensor:
    """(..., n, n_bands) features -> (..., n, d_model) source encoding."""
    x = de if isinstance(de, Tensor) else Tensor(np.asarray(de, dtype=dta.dtype))
    if x.shape[-1] != dta.config.n_bands:
        raise ModelError(f"expected {dta.config.n_bands} bands, got {x.shape[-1]}")
    return _mlp_embed(x, dta.params, "src_embed")


def init_inputs(p_emb: Tensor, pos_table: Tensor, s_emb: Tensor):
    """First-layer query plus the shared key/value input.

    The key and value inputs are one and the same tensor (query + source
    encoding); they are projected once and never recomputed, so every layer
    consumes bit-identical keys and values.
    """
    q1 = p_emb + pos_table
    kv = q1 + s_emb
    return q1, kv


def masked_attention(q, k, v, dta: DtaParameters, layer: int, mask_diagonal: bool,
                     return_weights=False):
    """Multi-head attention over channels; pretraining masks the diagonal.

    The query projection, the shared (B, n, d_model) keys and values and the
    mask go to the fused :func:`autodiff.attention` op (one tape node, head
    split and 1/sqrt(d_head) scale included).  With the mask on, diagonal
    logits are driven to -inf before the softmax, so the post-softmax
    self-weight is exactly zero and each row is a convex combination of the
    *other* channels' values.  Returns the heads' merged (B, n, d_model)
    output, before the output projection, and, when `return_weights` asks
    for it, the (B, heads, query, key) attention weights array (else None):
    the op does not keep the weights, so building them costs a second pass
    over the logits.
    """
    if mask_diagonal and q.shape[-2] < 2:
        raise ModelError("diagonal masking needs at least 2 channels")
    return ad.attention(_affine(q, dta.params, f"enc{layer}.q"), k, v, dta.config.n_heads,
                        mask_diagonal=mask_diagonal, return_weights=return_weights)


def encoder_layer(q, k, v, dta: DtaParameters, layer: int, mask_diagonal: bool, rng,
                  return_weights=False):
    """One post-norm block of four tape nodes: query linear, attention, then
    each sublayer's last node ends in its own residual Add & Norm, the
    output linear as LN1(q + attention W + b) and the feed-forward as
    LN2(x + ffn(x)).  Feed-forward dropout fires when an `rng` is given;
    the attention weights come back as :func:`masked_attention` returns
    them."""
    p, name = dta.params, f"enc{layer}"
    mixed, attn = masked_attention(q, k, v, dta, layer, mask_diagonal, return_weights)
    x = ad.linear(mixed, p[f"{name}.out.w"], p[f"{name}.out.b"],
                  add_norm=(q, p[f"{name}.ln1.g"], p[f"{name}.ln1.b"]))
    out = ad.ffn(x, p[f"{name}.ffn.f1.w"], p[f"{name}.ffn.f1.b"], p[f"{name}.ffn.f2.w"],
                 p[f"{name}.ffn.f2.b"], dta.config.dropout, rng,
                 add_norm=(p[f"{name}.ln2.g"], p[f"{name}.ln2.b"]))
    return out, attn


def encode(de, pos_data, dta: DtaParameters, mask_diagonal=False, rng=None,
           capture_attention=False) -> EncoderOutput:
    """Run the full encoder.

    `de` is (B, n, bands), (n, bands), or a Tensor.  `mask_diagonal` removes
    the attention diagonal (contrastive pretraining); calibration and
    prediction leave it off.  Dropout fires only when an `rng` is given.
    Output q_final is (B, n, d_model), as are the keys and values every
    layer's attention node takes.  `capture_attention` asks every layer
    for its (B, heads, n, n) weights, each rebuilt from the logits after
    the layer's attention has run; without it none is built.
    """
    cfg = dta.config
    x = de if isinstance(de, Tensor) else Tensor(np.asarray(de, dtype=dta.dtype))
    if x.ndim == 2:
        x = ad.reshape(x, (1, *x.shape))
    if x.ndim != 3 or x.shape[1] != cfg.n_channels or x.shape[2] != cfg.n_bands:
        raise ModelError(
            f"features must be (B, {cfg.n_channels}, {cfg.n_bands}), got {x.shape}")

    p_emb = embed_positions(pos_data, dta)
    s_emb = embed_source(x, dta)
    q, kv = init_inputs(p_emb, dta.params["pos_table"], s_emb)
    k = ad.linear(kv, dta.params["kv.k.w"])
    v = _affine(kv, dta.params, "kv.v")

    attn_maps = [] if capture_attention else None
    for layer in range(cfg.n_layers):
        q, attn = encoder_layer(q, k, v, dta, layer, mask_diagonal, rng, capture_attention)
        if capture_attention:
            attn_maps.append(attn)
    return EncoderOutput(q_final=q, attention=attn_maps)


def _flatten(q_final):
    *lead, n, d = q_final.shape
    return ad.reshape(q_final, (*lead, n * d))


def _batch_norm(x, dta, key, train):
    """Batch norm over axis 0 with the parameters and running statistics under
    `key`: `train` normalises with the batch's statistics and moves the
    running ones towards them; eval mode uses the running ones."""
    state, mean, var = dta.bn_state, f"{key}.mean", f"{key}.var"
    if train:
        neg_mu = ad.tsum(x, axis=0) * (-1.0 / x.shape[0])
        xc = x + neg_mu
        batch_var = ad.tmean(xc * xc, axis=0)
        inv = ad.power(batch_var + BN_EPS, -0.5)
        state[mean] = (1 - BN_MOMENTUM) * state[mean] - BN_MOMENTUM * neg_mu.data
        state[var] = (1 - BN_MOMENTUM) * state[var] + BN_MOMENTUM * batch_var.data
    else:
        xc = x + Tensor(-state[mean])
        inv = Tensor(1.0 / np.sqrt(state[var] + BN_EPS))
    return xc * inv * dta.params[f"{key}.g"] + dta.params[f"{key}.b"]


def project(q_final, dta: DtaParameters, train=False, rng=None) -> Tensor:
    """Projection head: flatten, then three affine stages with batch norm,
    ELU and dropout between them; output is the contrastive embedding.

    `train` normalises with batch statistics and updates the running ones in
    `dta.bn_state`; eval mode uses the running statistics and writes nothing.
    Dropout fires only when an `rng` is given."""
    x = _flatten(q_final)
    for stage in (1, 2):
        x = ad.linear(x, dta.params[f"proj.fc{stage}.w"])
        x = ad.elu(_batch_norm(x, dta, f"proj.bn{stage}", train))
        if rng is not None:
            x = ad.dropout(x, dta.config.dropout, rng)
    return _affine(x, dta.params, "proj.fc3")


def classify(q_final, dta: DtaParameters) -> Tensor:
    """Classifier head: flatten, two ELU hidden layers, linear logits; the
    second hidden layer and the logits are one ``ffn`` node."""
    params = dta.params
    x = ad.elu(_affine(_flatten(q_final), params, "clf.fc1"))
    return ad.ffn(x, params["clf.fc2.w"], params["clf.fc2.b"], params["clf.fc3.w"],
                  params["clf.fc3.b"], 0.0, None)
