"""Encoder architecture contracts: masking, information separation,
embeddings, projection and classification heads."""

import dataclasses
import threading

import numpy as np
import pytest

from eegtransfer import autodiff as ad
from eegtransfer import losses as ls
from eegtransfer import model as M
from eegtransfer.config import ModelConfig

TINY = ModelConfig(n_layers=2, d_model=8, n_heads=2, ffn_hidden=16,
                   n_channels=6, n_bands=5, proj_dims=(16, 32, 16),
                   clf_hidden=(8, 8), n_classes=3)


@pytest.fixture(scope="module")
def tiny():
    rng = np.random.default_rng(0)
    pos = rng.normal(size=(6, 3))
    pos /= np.linalg.norm(pos, axis=1, keepdims=True)
    return M.init_parameters(TINY, seed=1), pos


def rand_de(rng, n=6, b=5, batch=None):
    shape = (batch, n, b) if batch else (n, b)
    return rng.normal(size=shape)


def graph(root):
    """id -> node of every node `root` depends on, itself included."""
    nodes, stack = {}, [root]
    while stack:
        t = stack.pop()
        if id(t) not in nodes:
            nodes[id(t)] = t
            stack.extend(t._parents)
    return nodes


def tape_ops(root):
    """The ops of the tape nodes behind `root` (parameters and inputs are
    leaves), sorted."""
    return sorted(t._op for t in graph(root).values() if t._parents)


class TestEmbeddings:
    def test_zero_weights_give_zero_position_embedding(self, tiny):
        dta, pos = tiny
        zeroed = dta.copy()
        for name in ("pos_embed.f1.w", "pos_embed.f1.b", "pos_embed.f2.w",
                     "pos_embed.f2.b"):
            zeroed.params[name].data = np.zeros_like(zeroed.params[name].data)
        assert np.all(M.embed_positions(pos, zeroed).data == 0.0)

    def test_position_embedding_is_row_wise(self, tiny):
        dta, pos = tiny
        base = M.embed_positions(pos, dta).data
        perm = np.array([2, 0, 1, 5, 4, 3])
        permuted = M.embed_positions(pos[perm], dta).data
        assert np.allclose(permuted, base[perm], atol=1e-12)

    def test_identical_coordinates_give_identical_rows(self, tiny):
        dta, pos = tiny
        pos2 = pos.copy()
        pos2[3] = pos2[0]
        emb = M.embed_positions(pos2, dta).data
        assert np.array_equal(emb[3], emb[0])

    def test_source_embedding_row_wise_and_duplicates(self, tiny):
        dta, _ = tiny
        rng = np.random.default_rng(1)
        de = rand_de(rng)
        de[4] = de[1]
        emb = M.embed_source(de, dta).data
        assert np.array_equal(emb[4], emb[1])
        # row c depends only on de[c]
        de2 = de.copy()
        de2[0] += 1.0
        emb2 = M.embed_source(de2, dta).data
        assert np.array_equal(emb2[1:], emb[1:])
        assert not np.allclose(emb2[0], emb[0])


class TestInitInputs:
    def test_key_equals_value_and_sums(self, tiny):
        """The key/value input is q1 plus the source encoding, bit for bit,
        with a batchless q1 added to every batch entry."""
        dta, pos = tiny
        rng = np.random.default_rng(2)
        p_emb = M.embed_positions(pos, dta)
        for de in (rand_de(rng), rand_de(rng, batch=3)):
            q1, kv = M.init_inputs(p_emb, dta.params["pos_table"], de, dta)
            assert np.allclose(q1.data, p_emb.data + dta.params["pos_table"].data, atol=1e-12)
            assert np.array_equal(kv.data, q1.data + M.embed_source(de, dta).data)

    def test_zero_source_makes_kv_equal_q(self, tiny):
        """Zero features encode to exactly zero under the fresh zero biases."""
        dta, pos = tiny
        p_emb = M.embed_positions(pos, dta)
        q1, kv = M.init_inputs(p_emb, dta.params["pos_table"], np.zeros((6, TINY.n_bands)), dta)
        assert np.array_equal(q1.data, kv.data)


class TestMaskedAttention:
    def test_two_channels_swap_values(self, tiny):
        dta, pos = tiny
        cfg = ModelConfig(n_layers=1, d_model=8, n_heads=2, ffn_hidden=16,
                          n_channels=2, n_bands=5, proj_dims=(4, 4, 4),
                          clf_hidden=(4, 4), n_classes=2)
        d2 = M.init_parameters(cfg, seed=3)
        rng = np.random.default_rng(3)
        q = ad.Tensor(rng.normal(size=(1, 2, 8)))
        k = ad.Tensor(rng.normal(size=(1, 2, 8)))
        v = ad.Tensor(rng.normal(size=(1, 2, 8)))
        mixed = M.masked_attention(q, k, v, d2, 0, mask_diagonal=True).data
        # with the diagonal removed each row has one column left, with
        # weight 1 in every head: the channels swap values exactly
        assert np.array_equal(mixed[:, 0], v.data[:, 1])
        assert np.array_equal(mixed[:, 1], v.data[:, 0])

    def test_three_channels_equal_logits_split_half(self, tiny):
        cfg = ModelConfig(n_layers=1, d_model=8, n_heads=1, ffn_hidden=16,
                          n_channels=3, n_bands=5, proj_dims=(4, 4, 4),
                          clf_hidden=(4, 4), n_classes=2)
        d3 = M.init_parameters(cfg, seed=4)
        # zero query projection -> all logits equal
        d3.params["enc0.q.w"].data = np.zeros_like(d3.params["enc0.q.w"].data)
        rng = np.random.default_rng(4)
        q = ad.Tensor(rng.normal(size=(1, 3, 8)))
        k = ad.Tensor(rng.normal(size=(1, 3, 8)))
        v = ad.Tensor(rng.normal(size=(1, 3, 8)))
        mixed = M.masked_attention(q, k, v, d3, 0, mask_diagonal=True).data[0]
        # each row is the mean of the other two channels' values
        for i in range(3):
            others = np.delete(v.data[0], i, axis=0)
            assert np.allclose(mixed[i], others.mean(axis=0), rtol=0, atol=1e-12)

    def test_test_mode_saturated_diagonal_returns_own_value(self):
        # craft logits with +40 on the diagonal: softmax keeps own value
        rng = np.random.default_rng(5)
        n, dh = 4, 8
        v = rng.normal(size=(1, 1, n, dh))
        logits = rng.normal(size=(1, 1, n, n))
        logits[0, 0][np.eye(n, dtype=bool)] += 40.0
        attn = ad.softmax(ad.Tensor(logits)).data
        mixed = attn @ v
        assert np.allclose(mixed[0, 0], v[0, 0], atol=1e-9)

    def test_single_channel_train_mode_rejected(self):
        cfg = ModelConfig(n_layers=1, d_model=8, n_heads=1, ffn_hidden=8,
                          n_channels=1, n_bands=5, proj_dims=(4, 4, 4),
                          clf_hidden=(4, 4), n_classes=2)
        d1 = M.init_parameters(cfg, seed=5)
        pos = np.array([[0.0, 0.0, 1.0]])
        with pytest.raises(M.ModelError):
            M.encode(np.zeros((1, 5)), pos, d1, mask_diagonal=True)


class TestEncode:
    def test_attention_rows_sum_to_one_and_diagonal_zero(self, tiny):
        """In every layer, values that are one row c repeated come out as c
        (each row's weights sum to one), and with the mask on, changing only
        channel i's value leaves channel i's output row unchanged, bit for
        bit (its self-weight is exactly zero)."""
        dta, _ = tiny
        rng = np.random.default_rng(7)
        q, k = (ad.Tensor(rng.normal(size=(3, 6, TINY.d_model))) for _ in range(2))
        c = rng.normal(size=TINY.d_model)
        v = rng.normal(size=(3, 6, TINY.d_model))
        for layer in range(TINY.n_layers):
            for mask in (False, True):
                same = ad.Tensor(np.broadcast_to(c, v.shape).copy())
                mixed = M.masked_attention(q, k, same, dta, layer, mask).data
                assert np.allclose(mixed, c, rtol=0, atol=1e-12)
            base = M.masked_attention(q, k, ad.Tensor(v), dta, layer, True).data
            for i in range(6):
                moved = v.copy()
                moved[:, i] += rng.uniform(-10, 10, size=TINY.d_model)
                out = M.masked_attention(q, k, ad.Tensor(moved), dta, layer, True).data
                assert np.array_equal(out[:, i], base[:, i])

    def test_key_value_bitwise_constant_across_layers(self, tiny, monkeypatch):
        dta, pos = tiny
        rng = np.random.default_rng(9)
        seen = []
        layer = M.encoder_layer

        def spy(q, k_heads, v_heads, *args, **kwargs):
            seen.append((k_heads, v_heads, k_heads.data.copy(), v_heads.data.copy()))
            return layer(q, k_heads, v_heads, *args, **kwargs)

        monkeypatch.setattr(M, "encoder_layer", spy)
        M.encode(rand_de(rng, batch=2), pos, dta, mask_diagonal=True)
        assert len(seen) == dta.config.n_layers >= 2
        k0, v0, k0_data, v0_data = seen[0]
        for k, v, k_data, v_data in seen[1:]:
            assert k is k0 and v is v0  # every layer consumes the same tensors
            assert k.data is k0.data and v.data is v0.data
            assert np.array_equal(k_data, k0_data) and np.array_equal(v_data, v0_data)

    def test_self_unknown_property_in_train_mode(self, tiny):
        dta, pos = tiny
        rng = np.random.default_rng(10)
        de = rand_de(rng)
        base = M.encode(de, pos, dta, mask_diagonal=True).data[0]
        for i in range(6):
            bumped = de.copy()
            bumped[i] += rng.uniform(-10, 10, size=5)
            out = M.encode(bumped, pos, dta, mask_diagonal=True).data[0]
            assert np.max(np.abs(out[i] - base[i])) <= 1e-9
            others = np.delete(np.abs(out - base), i, axis=0)
            assert others.max() >= 1e-6

    def test_masked_row_depends_on_own_input_in_test_mode(self, tiny):
        dta, pos = tiny
        rng = np.random.default_rng(11)
        de = rand_de(rng)
        base = M.encode(de, pos, dta).data[0]
        bumped = de.copy()
        bumped[2] += 1.0
        out = M.encode(bumped, pos, dta).data[0]
        assert np.max(np.abs(out[2] - base[2])) > 1e-6

    def test_eval_mode_bitwise_deterministic(self, tiny):
        dta, pos = tiny
        rng = np.random.default_rng(12)
        de = rand_de(rng, batch=3)
        a = M.encode(de, pos, dta).data
        b = M.encode(de, pos, dta).data
        assert np.array_equal(a, b)

    def test_channel_permutation_equivariance(self, tiny):
        dta, pos = tiny
        rng = np.random.default_rng(13)
        de = rand_de(rng)
        perm = np.array([3, 1, 5, 0, 2, 4])
        permuted = dta.copy()
        permuted.params["pos_table"].data = dta.params["pos_table"].data[perm]
        base = M.encode(de, pos, dta, mask_diagonal=True).data[0]
        out = M.encode(de[perm], pos[perm], permuted, mask_diagonal=True).data[0]
        assert np.allclose(out, base[perm], atol=1e-9)

    def test_encoder_layer_zero_ffn_reduces_to_norms(self, tiny):
        dta, pos = tiny
        zeroed = dta.copy()
        for name in ("enc0.ffn.f1.w", "enc0.ffn.f1.b", "enc0.ffn.f2.w",
                     "enc0.ffn.f2.b"):
            zeroed.params[name].data = np.zeros_like(zeroed.params[name].data)
        rng = np.random.default_rng(14)
        de = rand_de(rng)
        p_emb = M.embed_positions(pos, zeroed)
        q, kv = M.init_inputs(p_emb, zeroed.params["pos_table"], ad.Tensor(de[None]), zeroed)
        k = ad.linear(kv, zeroed.params["kv.k.w"])
        v = M._affine(kv, zeroed.params, "kv.v")
        mixed = M.masked_attention(q, k, v, zeroed, 0, mask_diagonal=True)
        h = M._affine(mixed, zeroed.params, "enc0.out")
        x = ad.layer_norm(q + h, zeroed.params["enc0.ln1.g"], zeroed.params["enc0.ln1.b"])
        want = ad.layer_norm(x, zeroed.params["enc0.ln2.g"], zeroed.params["enc0.ln2.b"]).data
        got = M.encoder_layer(q, k, v, zeroed, 0, True, None)
        assert np.allclose(got.data, want, atol=1e-12)

    def test_dropout_fires_only_with_rng(self, tiny):
        dta, pos = tiny
        de = rand_de(np.random.default_rng(23), batch=2)
        plain = M.encode(de, pos, dta).data
        dropped = M.encode(de, pos, dta, rng=np.random.default_rng(0)).data
        assert not np.array_equal(dropped, plain)
        # at rate 0 an rng is never drawn from and the output is unchanged
        no_dropout = M.DtaParameters(dataclasses.replace(TINY, dropout=0.0),
                                     dta.params, dta.bn_state)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        assert np.array_equal(M.encode(de, pos, no_dropout, rng=rng).data, plain)
        assert rng.bit_generator.state == state

    def test_shape_contract(self, tiny):
        dta, pos = tiny
        rng = np.random.default_rng(15)
        out = M.encode(rand_de(rng, batch=4), pos, dta)
        assert out.shape == (4, 6, TINY.d_model)
        with pytest.raises(M.ModelError):
            M.encode(rng.normal(size=(4, 7, 5)), pos, dta)

    @staticmethod
    def _encoder_nodes(tiny):
        """The tape nodes of a masked pretrain step between the kv.k/kv.v
        linears and the encoder output, with that output and the nodes the
        kv linears depend on, themselves included (id -> node)."""
        dta, pos = tiny
        dta = dta.copy()  # train-mode projection writes batch-norm state
        rng = np.random.default_rng(16)
        enc = M.encode(rand_de(rng, batch=4), pos, dta, mask_diagonal=True, rng=rng)
        z = M.project(enc, dta, train=True, rng=rng)
        labels = np.array([0, 1])
        loss = ls.contrastive_loss(z, labels)
        kv_weights = (dta.params["kv.k.w"], dta.params["kv.v.w"])
        kv_linears = [t for t in graph(loss).values()
                      if any(p is w for p in t._parents for w in kv_weights)]
        assert [t._op for t in kv_linears] == ["linear", "linear"]
        upstream = {}
        for t in kv_linears:
            upstream.update(graph(t))
        return ([t for i, t in graph(enc).items() if i not in upstream and t._parents],
                enc, upstream)  # parameters are leaves

    def test_layers_are_two_fused_nodes_each_after_key_value_linears(self, tiny):
        """Between the kv.k/kv.v linears and the encoder output, a masked
        pretrain step's graph holds only each layer's attention (query
        projection inside) and post-attention node (output projection, both
        Add & Norms and the feed-forward)."""
        nodes, _, _ = self._encoder_nodes(tiny)
        layer = ["attention", "post_attention"]
        assert sorted(t._op for t in nodes) == sorted(layer * TINY.n_layers)

    def test_encoder_layer_keeps_only_what_its_backward_cannot_rebuild(self, tiny):
        """The (B, n, ·) buffers the encoder's nodes hold, as outputs, in
        their backward closures or in their rebuilds, are per layer exactly:
        the attention output o and each query's softmax max and sum; both
        norms' x̂ and reciprocal stds, the ELU output e and the keep mask as
        uint8 bits; and the last layer's output.  No projected query, LN1
        output, boolean mask or earlier layer output is kept: the backward
        rebuilds them (a layer output from x̂₂)."""
        def base(a):
            while isinstance(a.base, np.ndarray):
                a = a.base
            return a

        nodes, enc, upstream = self._encoder_nodes(tiny)
        batch, n, d, hidden = 4, TINY.n_channels, TINY.d_model, TINY.ffn_hidden
        # the keys and values, the first layer's query input and the parameters
        outside = {id(base(t.data)) for t in upstream.values()}
        outside.update(id(base(t.data)) for _, t in tiny[0].params.items())
        kept = {}
        for t in nodes:
            arrays = [] if t.data is None else [t.data]
            for fn in (t._backward, t._rebuild):
                for cell in getattr(fn, "__closure__", None) or ():
                    try:
                        value = cell.cell_contents
                    except ValueError:  # a name the node's form never binds
                        continue
                    arrays += [a for a in (value if isinstance(value, tuple) else (value,))
                               if isinstance(a, np.ndarray)]
            for a in arrays:
                b = base(a)
                if b.size % (batch * n) == 0 and id(b) not in outside:
                    kept[id(b)] = b
        released = [t for t in nodes if t.data is None]
        assert len(released) == TINY.n_layers - 1
        assert all(t._op == "post_attention" for t in released) and enc.data is not None
        f = "float64"
        layer = [(n * d, f)] * 3 + [(n, f)] * 2 + [(n * hidden, f), (n * hidden // 8, "uint8")]
        layer += [(TINY.n_heads * n, f)] * 2
        assert sorted((b.size // batch, b.dtype.name) for b in kept.values()) == sorted(
            layer * TINY.n_layers + [(n * d, f)])

    def test_pretrain_and_calibration_steps_record_these_tape_nodes(self, tiny):
        """The op multiset of a masked pretrain step and of a calibration
        cross-entropy step: each embedding is one ffn node, the classifier
        is reshape, linear, elu, ffn, and negations are folded into
        constants (a Tensor has no `-`)."""
        dta, pos = tiny
        dta = dta.copy()  # train-mode projection writes batch-norm state
        rng = np.random.default_rng(16)
        layer = ["attention", "post_attention"]
        encoder = ["ffn", "ffn", "add", "linear", "linear", *layer * TINY.n_layers]
        batch_norm = ["sum", "mul", "add", "mul", "sum", "mul", "add", "power", "mul", "mul",
                      "add"]
        projector = ["reshape", "linear", *batch_norm, "elu", "dropout",
                     "linear", *batch_norm, "elu", "dropout", "linear"]
        row_norm = ["mul", "sum", "power", "mul"]  # once over both views
        contrastive = [*row_norm, "narrow", "narrow", "swapaxes", "matmul", "mul",
                       "softplus", "mul", "add", "sum", "mul"]
        enc = M.encode(rand_de(rng, batch=4), pos, dta, mask_diagonal=True, rng=rng)
        z = M.project(enc, dta, train=True, rng=rng)
        labels = np.array([0, 1])
        loss = ls.contrastive_loss(z, labels)
        assert tape_ops(loss) == sorted(encoder + projector + contrastive)
        assert len(tape_ops(loss)) == 49 + 2 * TINY.n_layers  # 57 at the reference 4 layers

        # the source encoding and q1 are summed inside one ffn node
        p_emb = M.embed_positions(pos, dta)
        q1, kv = M.init_inputs(p_emb, dta.params["pos_table"], rand_de(rng, batch=4), dta)
        assert p_emb._op == "ffn" and not any(p._parents for p in p_emb._parents)
        assert kv._op == "ffn" and [p for p in kv._parents if p._parents] == [q1]

        classifier = ["reshape", "linear", "elu", "ffn"]
        cross_entropy = ["mul", "sum", "logsumexp", "add", "sum", "mul"]
        enc = M.encode(rand_de(rng, batch=4), pos, dta, rng=rng)
        logits = M.classify(enc, dta)
        loss = ls.cross_entropy(logits, np.array([0, 1, 2, 0]))
        assert tape_ops(loss) == sorted(encoder + classifier + cross_entropy)
        assert len(tape_ops(loss)) == 15 + 2 * TINY.n_layers  # 23 at the reference 4 layers
        chain, t = [], logits
        while t is not enc:
            chain.append(t._op)
            t = t._parents[0]
        assert chain[::-1] == classifier
        assert not hasattr(ad.Tensor, "__sub__") and not hasattr(ad.Tensor, "__neg__")


class TestGraphMemory:
    """Each (B, n, d) activation of a training graph is held once: a layer
    output is released once the next layer has used it and rebuilt from x̂₂
    on demand, and the backward sweep drops each node's output."""

    @staticmethod
    def _shift_norms(dta, rng):
        """Move every layer norm's γ and β off the fresh 1 and 0, which a
        rebuild that drops either would still match."""
        for name in dta.params.names():
            if ".ln" in name:
                t = dta.params[name]
                t.data = (t.data + rng.uniform(-0.5, 0.5, size=t.shape)).astype(t.dtype)

    @staticmethod
    def _spy_layers(monkeypatch):
        """[(layer output, copy of its values when made)], filled by encode."""
        outs, layer = [], M.encoder_layer

        def spy(*args, **kwargs):
            out = layer(*args, **kwargs)
            outs.append((out, out.data.copy()))
            return out
        monkeypatch.setattr(M, "encoder_layer", spy)
        return outs

    def test_sweep_drops_every_intermediate(self, tiny, monkeypatch):
        """After loss.backward() every encoder output and every other
        intermediate has `data` None; the root, the parameters and the
        input features keep theirs."""
        dta, pos = tiny
        dta = dta.copy()  # train-mode projection writes batch-norm state
        outs = self._spy_layers(monkeypatch)
        rng = np.random.default_rng(16)
        de = ad.Tensor(rand_de(rng, batch=4))
        enc = M.encode(de, pos, dta, mask_diagonal=True, rng=rng)
        z = M.project(enc, dta, train=True, rng=rng)
        labels = np.array([0, 1])
        loss = ls.contrastive_loss(z, labels)
        inner = [t for t in graph(loss).values() if t._parents and t is not loss]
        assert len(inner) == len(tape_ops(loss)) - 1
        assert [t.data is None for t, _ in outs] == [True] * (TINY.n_layers - 1) + [False]
        loss.backward()
        assert all(t.data is None for t in inner)
        assert all(t.data is None for t, _ in outs) and enc.data is None
        assert loss.data is not None and de.data is not None
        assert all(t.data is not None for _, t in dta.params.items())
        with pytest.raises(AttributeError):
            z.shape  # a used-up tensor fails loudly

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_released_layer_output_rebuilds_bit_for_bit(self, tiny, monkeypatch, set_workers,
                                                        dtype, workers):
        """Every layer output but the last is released by encode and rebuilt
        with the forward's bits (over `_split`'s tiles at 2 workers); under
        no_grad nothing is released."""
        _, pos = tiny
        set_workers(workers)
        dta = M.init_parameters(dataclasses.replace(TINY, n_layers=3), seed=2, dtype=dtype)
        outs = self._spy_layers(monkeypatch)
        rng = np.random.default_rng(25)
        self._shift_norms(dta, rng)
        de = rand_de(rng, batch=10)
        enc = M.encode(de, pos, dta, mask_diagonal=True, rng=rng)
        assert outs[-1][0] is enc and enc.data is not None
        for out, want in outs[:-1]:
            assert out.data is None
            got = out._value()
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        outs.clear()
        with ad.no_grad():
            M.encode(de, pos, dta, mask_diagonal=True)
        assert len(outs) == 3 and all(t.data is not None for t, _ in outs)

    def test_grad_check_through_released_layer_output(self, tiny, monkeypatch):
        """Layer 1's query input is layer 0's released output: its
        attention's backward rebuilds it for the query weights' gradient and
        sends its gradient back into layer 0, both exact in float64."""
        dta, pos = tiny
        dta = dta.copy()
        outs = self._spy_layers(monkeypatch)
        rng = np.random.default_rng(26)
        self._shift_norms(dta, rng)
        de = rand_de(rng, batch=3)
        w = rng.normal(size=(3, TINY.n_channels, TINY.d_model))

        def f():
            return ad.tsum(M.encode(de, pos, dta, mask_diagonal=True) * ad.Tensor(w))

        f()
        assert outs[0][0].data is None  # released when tracked
        names = ["enc1.q.w", "enc1.q.b", "enc0.ln2.g", "enc0.ln2.b", "enc0.ffn.f2.b",
                 "enc0.q.b"]
        assert ad.grad_check(f, dta.params, names=names) < 1e-4


class TestHeads:
    def test_projection_output_width(self, tiny):
        dta, pos = tiny
        rng = np.random.default_rng(16)
        enc = M.encode(rand_de(rng, batch=3), pos, dta)
        z = M.project(enc, dta, train=False)
        assert z.shape == (3, TINY.proj_dims[-1])

    def test_projection_eval_deterministic_and_train_uses_batch_stats(self, tiny):
        dta, pos = tiny
        rng = np.random.default_rng(17)
        enc = M.encode(rand_de(rng, batch=4), pos, dta)
        a = M.project(enc, dta, train=False).data
        enc2 = M.encode(rand_de(np.random.default_rng(17), batch=4), pos, dta)
        b = M.project(enc2, dta, train=False).data
        assert np.array_equal(a, b)

    def test_eval_projection_ignores_batch_composition(self, tiny):
        dta, pos = tiny
        rng = np.random.default_rng(18)
        de = rand_de(rng, batch=4)
        full = M.project(M.encode(de, pos, dta),
                         dta, train=False).data
        solo = M.project(M.encode(de[:1], pos, dta),
                         dta, train=False).data
        assert np.allclose(full[0], solo[0], atol=1e-9)

    def test_train_projection_updates_running_stats(self, tiny):
        dta, pos = tiny
        work = dta.copy()
        rng = np.random.default_rng(19)
        before = work.bn_state["proj.bn1.mean"].copy()
        enc = M.encode(rand_de(rng, batch=4), pos, work, mask_diagonal=True)
        M.project(enc, work, train=True)
        assert not np.array_equal(before, work.bn_state["proj.bn1.mean"])

    def test_eval_projection_leaves_running_stats(self, tiny):
        dta, pos = tiny
        work = dta.copy()
        before = {k: v.copy() for k, v in work.bn_state.items()}
        enc = M.encode(rand_de(np.random.default_rng(24), batch=4), pos, work)
        M.project(enc, work, rng=np.random.default_rng(0))
        assert all(np.array_equal(v, work.bn_state[k]) for k, v in before.items())

    def test_projector_gradient(self, tiny):
        dta, pos = tiny
        dta = dta.copy()  # train-mode batch norm updates the running statistics
        rng = np.random.default_rng(20)
        de = rand_de(rng, batch=3)
        w = rng.normal(size=(3, TINY.proj_dims[-1]))

        def f():
            enc = M.encode(de, pos, dta)
            z = M.project(enc, dta, train=True)
            return ad.tsum(z * ad.Tensor(w))

        err = ad.grad_check(f, dta.params, names=dta.projector_names())
        assert err < 1e-4

    def test_classifier_shapes_and_uniform_at_zero(self, tiny):
        dta, pos = tiny
        rng = np.random.default_rng(21)
        enc = M.encode(rand_de(rng, batch=2), pos, dta)
        logits = M.classify(enc, dta)
        assert logits.shape == (2, TINY.n_classes)
        # the fresh head is zero-initialized: uniform predictions
        probs = ls.softmax_probs(logits.data)
        assert np.allclose(probs, 1.0 / TINY.n_classes, atol=1e-12)

    def test_argmax_shift_invariance(self):
        rng = np.random.default_rng(22)
        logits = rng.normal(size=(5, 4))
        assert np.array_equal(np.argmax(logits, -1), np.argmax(logits + 3.3, -1))


class TestParameters:
    def test_reinit_classifier_only_touches_head(self, tiny):
        dta, _ = tiny
        work = dta.copy()
        M.reinit_classifier(work, seed=99)
        for name in work.params.names():
            same = np.array_equal(work.params[name].data, dta.params[name].data)
            if name.startswith("clf.fc1") or name.startswith("clf.fc2"):
                assert not same or np.all(dta.params[name].data == 0)
            elif name.startswith("clf."):
                assert same  # final layer is zero before and after
            else:
                assert same

    def test_group_names_partition_parameters(self, tiny):
        dta, _ = tiny
        groups = (set(dta.encoder_names()) | set(dta.projector_names())
                  | set(dta.classifier_names()))
        assert groups == set(dta.params.names())
        assert not set(dta.encoder_names()) & set(dta.projector_names())

    def test_astype_round_trip_shapes(self, tiny):
        dta, _ = tiny
        f32 = dta.astype(np.float32)
        assert f32.dtype == np.float32
        for name in dta.params.names():
            assert f32.params[name].data.shape == dta.params[name].data.shape


def test_pretrain_step_bitwise_equal_at_1_2_3_workers(set_workers):
    """A masked pretrain step with dropout on 5 samples per view: 2 and 3
    workers claim the 10 encoder entries as tiles of 4, 4 and 2, with the
    parameter gradients beside them, and loss, z, every gradient and the
    dropout rng state come out byte for byte as with 1 worker."""
    cfg = ModelConfig(n_layers=2)  # reference widths: 62 channels, d_model 32, 4 heads
    rng = np.random.default_rng(4)
    pos = rng.normal(size=(62, 3))
    pos /= np.linalg.norm(pos, axis=1, keepdims=True)
    x = rng.normal(size=(10, 62, 5))
    labels = np.array([0, 1, 2, 0, 1])
    runs = []
    for workers in (1, 2, 3):
        set_workers(workers)
        dta = M.init_parameters(cfg, seed=3, dtype=np.float32)
        rng_dropout = np.random.default_rng(7)
        enc = M.encode(x, pos, dta, mask_diagonal=True, rng=rng_dropout)
        z = M.project(enc, dta, train=True, rng=rng_dropout)
        loss = ls.contrastive_loss(z, labels)
        z_bytes = z.data.tobytes()  # the sweep drops z
        loss.backward()
        assert (ad._pool is not None) == (workers > 1)  # the split path ran
        runs.append((loss.data.tobytes(), z_bytes, rng_dropout.bit_generator.state,
                     {n: g.tobytes() for n, g in dta.params.gradients().items()}))
    assert runs[1] == runs[0]
    assert runs[2] == runs[0]


def _masked_step(x, labels, pos):
    """Loss, z, every gradient and the dropout rng state of a masked pretrain
    step at the reference widths (2 layers) on len(pos) channels, as bytes."""
    cfg = ModelConfig(n_layers=2, n_channels=len(pos))
    dta = M.init_parameters(cfg, seed=3, dtype=np.float32)
    rng_dropout = np.random.default_rng(7)
    enc = M.encode(x, pos, dta, mask_diagonal=True, rng=rng_dropout)
    z = M.project(enc, dta, train=True, rng=rng_dropout)
    loss = ls.contrastive_loss(z, labels)
    z_bytes = z.data.tobytes()  # the sweep drops z
    loss.backward()
    return (loss.data.tobytes(), z_bytes, str(rng_dropout.bit_generator.state),
            {n: g.tobytes() for n, g in dta.params.gradients().items()})


def test_pretrain_step_bitwise_equal_at_1_2_3_workers_on_19_channels(set_workers):
    """On 19 channels (a 10-20 montage) an entry has an odd row count, so the
    tiles start at every fourth entry, a multiple of 4 rows, and the
    layer_norm row means inside them keep the 1-worker bytes."""
    rng = np.random.default_rng(6)
    pos = rng.normal(size=(19, 3))
    pos /= np.linalg.norm(pos, axis=1, keepdims=True)
    x = rng.normal(size=(20, 19, 5))
    labels = np.arange(10) % 3
    runs = []
    for workers in (1, 2, 3):
        set_workers(workers)
        runs.append(_masked_step(x, labels, pos))
        assert (ad._pool is not None) == (workers > 1)  # the split path ran
    assert runs[1] == runs[0]
    assert runs[2] == runs[0]


def test_embed_source_uses_the_pool_at_production_size():
    """At B = 512 the source embedding's 5-wide input is under the pool's
    floor, but its 32-wide hidden layer is not: the ffn node is sized by its
    widest rows, so the pool runs (at the production slice floor), and the
    output and parameter gradients keep the 1-worker bytes."""
    dta = M.init_parameters(ModelConfig(), seed=3, dtype=np.float32)
    rng = np.random.default_rng(8)
    x = rng.normal(size=(512, 62, 5)).astype(np.float32)
    seed = rng.normal(size=(512, 62, 32)).astype(np.float32)
    before, runs = ad._workers, []
    try:
        for workers in (1, 2, 3):
            ad._set_workers(workers)
            dta.params.zero_grad()
            out = M.embed_source(x, dta)
            assert (ad._pool is not None) == (workers > 1)  # the forward's tiles were cut
            out.backward(seed)
            runs.append([out.data.tobytes()] + [dta.params[f"src_embed.{n}"].grad.tobytes()
                                                for n in ("f1.w", "f1.b", "f2.w", "f2.b")])
    finally:
        ad._set_workers(before)
    assert runs[1] == runs[0]
    assert runs[2] == runs[0]


def test_pretrain_step_returns_while_the_pool_thread_is_busy(set_workers):
    """With the pool's only thread held, the fused ops' tiles and parameter
    gradients all run in the calling thread: the step finishes before the
    thread is released, with the bytes of a 1-worker step."""
    rng = np.random.default_rng(5)
    pos = rng.normal(size=(62, 3))
    pos /= np.linalg.norm(pos, axis=1, keepdims=True)
    x = rng.normal(size=(38, 62, 5))  # 8 tiles at 2 workers: cuts 38 i // 8 would be odd
    labels = np.arange(19) % 3
    set_workers(1)
    want = _masked_step(x, labels, pos)
    set_workers(2)
    held, release = threading.Event(), threading.Event()

    def occupy():
        held.set()
        return release.wait(timeout=10)

    blocker = ad._executor().submit(occupy)  # the pool's only thread
    try:
        assert held.wait(timeout=10)
        got = _masked_step(x, labels, pos)
        assert not blocker.done()
    finally:
        release.set()
    assert blocker.result(timeout=10)  # released here, not timed out
    assert got == want


# -- the heads and losses as chains of generic nodes ---------------------------
# The model builds its MLPs as `ffn` nodes and folds every negation into a
# constant; these chains are the same computations written with one node per
# step and Tensor subtraction spelled as the add of a (-1)-scaled node.

def _generic_mlp(x, params, name):
    h = ad.elu(ad.linear(x, params[f"{name}.f1.w"], params[f"{name}.f1.b"]))
    return ad.linear(h, params[f"{name}.f2.w"], params[f"{name}.f2.b"])


def _generic_batch_norm(x, gamma, beta, state, key, train):
    mean, var = f"{key}.mean", f"{key}.var"
    if not train:
        centred = ad.add(x, ad.mul(ad.Tensor(state[mean]), -1.0))
        return centred * ad.Tensor(1.0 / np.sqrt(state[var] + M.BN_EPS)) * gamma + beta
    mu = ad.tsum(x, axis=0) * (1.0 / x.shape[0])
    xc = ad.add(x, ad.mul(mu, -1.0))
    batch_var = ad.tsum(xc * xc, axis=0) * (1.0 / x.shape[0])
    y = xc * ad.power(batch_var + M.BN_EPS, -0.5) * gamma + beta
    state[mean] = (1 - M.BN_MOMENTUM) * state[mean] + M.BN_MOMENTUM * mu.data
    state[var] = (1 - M.BN_MOMENTUM) * state[var] + M.BN_MOMENTUM * batch_var.data
    return y


def _generic_project(q, dta, train, rng):
    p = dta.params
    x = ad.reshape(q, (q.shape[0], -1))
    for i in (1, 2):
        x = ad.linear(x, p[f"proj.fc{i}.w"])
        x = _generic_batch_norm(x, p[f"proj.bn{i}.g"], p[f"proj.bn{i}.b"], dta.bn_state,
                                f"proj.bn{i}", train)
        x = ad.elu(x)
        if rng is not None:
            x = ad.dropout(x, dta.config.dropout, rng)
    return ad.linear(x, p["proj.fc3.w"], p["proj.fc3.b"])


def _generic_classify(q, dta):
    p = dta.params
    x = ad.reshape(q, (q.shape[0], -1))
    x = ad.elu(ad.linear(x, p["clf.fc1.w"], p["clf.fc1.b"]))
    x = ad.elu(ad.linear(x, p["clf.fc2.w"], p["clf.fc2.b"]))
    return ad.linear(x, p["clf.fc3.w"], p["clf.fc3.b"])


def _generic_contrastive(z, labels):
    """The loss with each view narrowed from `z` first and its rows then
    normalised on their own."""
    def unit_rows(z):
        return z * ad.power(ad.tsum(z * z, axis=-1, keepdims=True), -0.5)

    n = len(labels)
    z_a, z_b = ad.narrow(z, 0, n), ad.narrow(z, n, n)
    x = ad.matmul(unit_rows(z_a), ad.swapaxes(unit_rows(z_b), -1, -2))
    x = x * (1.0 / ls.DEFAULT_TEMPERATURE)
    y = (labels[:, None] == labels[None, :]).astype(x.dtype)
    return ad.tsum(ad.add(ad.softplus(x), ad.mul(x * ad.Tensor(y), -1.0))) * (1.0 / y.size)


def _generic_cross_entropy(t, labels):
    onehot = np.zeros(t.shape, dtype=t.dtype)
    onehot[np.arange(len(labels)), labels] = 1.0
    picked = ad.tsum(t * ad.Tensor(onehot), axis=-1)
    return ad.tsum(ad.add(ad.logsumexp(t, axis=-1), ad.mul(picked, -1.0))) * (1.0 / len(labels))


def _as_bytes(fn, dta, inputs):
    """fn(dta, rng, *inputs as Tensors) on a copy of `dta`, swept back from a
    fixed weighting of its output: the bytes of the output, of each input's
    and parameter's gradient, of the batch-norm state and of the rng."""
    dta = dta.copy()
    tensors = [ad.Tensor(a, requires_grad=True) for a in inputs]
    rng = np.random.default_rng(11)
    out = fn(dta, rng, *tensors)
    out_bytes = out.data.tobytes()  # the sweep drops the output
    w = np.random.default_rng(12).normal(size=out.shape).astype(out.dtype)
    ad.tsum(out * ad.Tensor(w)).backward()
    return [out_bytes, *(t.grad.tobytes() for t in tensors),
            *(g.tobytes() for g in dta.params.gradients().values()),
            *(v.tobytes() for v in dta.bn_state.values()), str(rng.bit_generator.state)]


def test_heads_and_losses_bitwise_equal_to_generic_chains(set_workers):
    """The embeddings, both heads (batch norm in train and eval mode) and both
    losses give the bytes of their generic-node chains: outputs, parameter
    and input gradients and batch-norm state, at 1, 2 and 3 workers, with
    the 256-entry batch cut into tiles, and each as at 1 worker.  Tiles of
    16 entries or more keep embed_source's input-gradient GEMM (19 rows per
    entry, 32 x 5) above OpenBLAS's small-matrix sizes, where its bits would
    depend on the cut."""
    cfg = ModelConfig(n_layers=1, n_channels=19)  # reference widths on a 10-20 montage
    rng = np.random.default_rng(8)
    pos = rng.normal(size=(19, 3))
    pos /= np.linalg.norm(pos, axis=1, keepdims=True)
    de = rng.normal(size=(256, 19, cfg.n_bands)).astype(np.float32)
    q = rng.normal(size=(256, 19, cfg.d_model)).astype(np.float32)
    z = rng.normal(size=(256, cfg.proj_dims[-1])).astype(np.float32)
    logits = rng.normal(size=(256, cfg.n_classes)).astype(np.float32)
    labels = np.arange(256) % cfg.n_classes
    cases = {
        "embed_positions": (lambda d, r: M.embed_positions(pos, d),
                            lambda d, r: _generic_mlp(ad.Tensor(pos.astype(np.float32)),
                                                      d.params, "pos_embed"), ()),
        "embed_source": (lambda d, r, x: M.embed_source(x, d),
                         lambda d, r, x: _generic_mlp(x, d.params, "src_embed"), (de,)),
        "classify": (lambda d, r, x: M.classify(x, d), lambda d, r, x: _generic_classify(x, d),
                     (q,)),
        "project_train": (lambda d, r, x: M.project(x, d, train=True, rng=r),
                          lambda d, r, x: _generic_project(x, d, True, r), (q,)),
        "project_eval": (lambda d, r, x: M.project(x, d),
                         lambda d, r, x: _generic_project(x, d, False, None), (q,)),
        "contrastive_loss": (lambda d, r, t: ls.contrastive_loss(t, labels[:128]),
                             lambda d, r, t: _generic_contrastive(t, labels[:128]), (z,)),
        "cross_entropy": (lambda d, r, t: ls.cross_entropy(t, labels),
                          lambda d, r, t: _generic_cross_entropy(t, labels), (logits,)),
    }
    dta = M.init_parameters(cfg, seed=5, dtype=np.float32)
    for name in ("clf.fc3.w", "clf.fc3.b"):  # a zero output layer would hide the hidden grads
        dta.params[name].data = rng.normal(size=dta.params[name].shape).astype(np.float32)
    dta.bn_state = {k: v + rng.random(v.shape, dtype=np.float32) for k, v in dta.bn_state.items()}
    first = {}
    for workers in (1, 2, 3):
        set_workers(workers)
        for name, (fused, generic, inputs) in cases.items():
            got = _as_bytes(fused, dta, inputs)
            assert got == _as_bytes(generic, dta, inputs), (name, workers)
            assert got == first.setdefault(name, got), (name, workers)
        assert (ad._pool is not None) == (workers > 1)  # the split path ran
