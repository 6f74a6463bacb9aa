"""Encoder architecture contracts: masking, information separation,
embeddings, projection and classification heads."""

import dataclasses

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
        dta, pos = tiny
        rng = np.random.default_rng(2)
        p_emb = M.embed_positions(pos, dta)
        s_emb = M.embed_source(rand_de(rng), dta)
        q1, kv = M.init_inputs(p_emb, dta.params["pos_table"], s_emb)
        assert np.allclose(q1.data, p_emb.data + dta.params["pos_table"].data, atol=1e-12)
        assert np.allclose(kv.data, q1.data + s_emb.data, atol=1e-12)

    def test_zero_source_makes_kv_equal_q(self, tiny):
        dta, pos = tiny
        p_emb = M.embed_positions(pos, dta)
        zeros = ad.Tensor(np.zeros((6, TINY.d_model)))
        q1, kv = M.init_inputs(p_emb, dta.params["pos_table"], zeros)
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
        k = M._to_heads(ad.Tensor(rng.normal(size=(1, 2, 8))), 2)
        v = M._to_heads(ad.Tensor(rng.normal(size=(1, 2, 8))), 2)
        _, attn = M.masked_attention(q, k, v, d2, 0, mask_diagonal=True)
        # with the diagonal removed each row has one column left
        assert np.allclose(attn[:, :, 0, 1], 1.0)
        assert np.allclose(attn[:, :, 1, 0], 1.0)
        assert np.all(attn[:, :, 0, 0] == 0.0)

    def test_three_channels_equal_logits_split_half(self, tiny):
        cfg = ModelConfig(n_layers=1, d_model=8, n_heads=1, ffn_hidden=16,
                          n_channels=3, n_bands=5, proj_dims=(4, 4, 4),
                          clf_hidden=(4, 4), n_classes=2)
        d3 = M.init_parameters(cfg, seed=4)
        # zero query projection -> all logits equal
        d3.params["enc0.q.w"].data = np.zeros_like(d3.params["enc0.q.w"].data)
        rng = np.random.default_rng(4)
        q = ad.Tensor(rng.normal(size=(1, 3, 8)))
        k = M._to_heads(ad.Tensor(rng.normal(size=(1, 3, 8))), 1)
        v = M._to_heads(ad.Tensor(rng.normal(size=(1, 3, 8))), 1)
        _, attn = M.masked_attention(q, k, v, d3, 0, mask_diagonal=True)
        off = attn[0, 0][~np.eye(3, dtype=bool)]
        assert np.allclose(off, 0.5, atol=1e-7)
        assert np.all(np.diag(attn[0, 0]) == 0.0)

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
        dta, pos = tiny
        rng = np.random.default_rng(7)
        out = M.encode(rand_de(rng, batch=3), pos, dta, mask_diagonal=True,
                       capture_attention=True)
        for attn in out.attention:
            assert np.allclose(attn.sum(axis=-1), 1.0, atol=1e-6)
            assert np.all(attn[:, :, np.arange(6), np.arange(6)] == 0.0)

    def test_test_mode_diagonal_may_be_positive(self, tiny):
        dta, pos = tiny
        rng = np.random.default_rng(8)
        out = M.encode(rand_de(rng, batch=2), pos, dta,
                       capture_attention=True)
        diag = out.attention[0][:, :, np.arange(6), np.arange(6)]
        assert np.all(diag > 0.0)

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
        base = M.encode(de, pos, dta, mask_diagonal=True).q_final.data[0]
        for i in range(6):
            bumped = de.copy()
            bumped[i] += rng.uniform(-10, 10, size=5)
            out = M.encode(bumped, pos, dta, mask_diagonal=True).q_final.data[0]
            assert np.max(np.abs(out[i] - base[i])) <= 1e-9
            others = np.delete(np.abs(out - base), i, axis=0)
            assert others.max() >= 1e-6

    def test_masked_row_depends_on_own_input_in_test_mode(self, tiny):
        dta, pos = tiny
        rng = np.random.default_rng(11)
        de = rand_de(rng)
        base = M.encode(de, pos, dta).q_final.data[0]
        bumped = de.copy()
        bumped[2] += 1.0
        out = M.encode(bumped, pos, dta).q_final.data[0]
        assert np.max(np.abs(out[2] - base[2])) > 1e-6

    def test_eval_mode_bitwise_deterministic(self, tiny):
        dta, pos = tiny
        rng = np.random.default_rng(12)
        de = rand_de(rng, batch=3)
        a = M.encode(de, pos, dta).q_final.data
        b = M.encode(de, pos, dta).q_final.data
        assert np.array_equal(a, b)

    def test_channel_permutation_equivariance(self, tiny):
        dta, pos = tiny
        rng = np.random.default_rng(13)
        de = rand_de(rng)
        perm = np.array([3, 1, 5, 0, 2, 4])
        permuted = dta.copy()
        permuted.params["pos_table"].data = dta.params["pos_table"].data[perm]
        base = M.encode(de, pos, dta, mask_diagonal=True).q_final.data[0]
        out = M.encode(de[perm], pos[perm], permuted, mask_diagonal=True).q_final.data[0]
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
        s_emb = M.embed_source(ad.Tensor(de[None]), zeroed)
        q, kv = M.init_inputs(p_emb, zeroed.params["pos_table"], s_emb)
        kh = M._to_heads(ad.linear(kv, zeroed.params["kv.k.w"]), TINY.n_heads)
        vh = M._to_heads(M._affine(kv, zeroed.params, "kv.v"), TINY.n_heads)
        h, _ = M.masked_attention(q, kh, vh, zeroed, 0, mask_diagonal=True)
        x = ad.layer_norm(q + h, zeroed.params["enc0.ln1.g"],
                          zeroed.params["enc0.ln1.b"], M.LN_EPS)
        want = ad.layer_norm(x, zeroed.params["enc0.ln2.g"],
                             zeroed.params["enc0.ln2.b"], M.LN_EPS).data
        got, _ = M.encoder_layer(q, kh, vh, zeroed, 0, True, None)
        assert np.allclose(got.data, want, atol=1e-12)

    def test_dropout_fires_only_with_rng(self, tiny):
        dta, pos = tiny
        de = rand_de(np.random.default_rng(23), batch=2)
        plain = M.encode(de, pos, dta).q_final.data
        dropped = M.encode(de, pos, dta, rng=np.random.default_rng(0)).q_final.data
        assert not np.array_equal(dropped, plain)
        # at rate 0 an rng is never drawn from and the output is unchanged
        no_dropout = M.DtaParameters(dataclasses.replace(TINY, dropout=0.0),
                                     dta.params, dta.bn_state)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        assert np.array_equal(M.encode(de, pos, no_dropout, rng=rng).q_final.data, plain)
        assert rng.bit_generator.state == state

    def test_shape_contract(self, tiny):
        dta, pos = tiny
        rng = np.random.default_rng(15)
        out = M.encode(rand_de(rng, batch=4), pos, dta)
        assert out.q_final.shape == (4, 6, TINY.d_model)
        with pytest.raises(M.ModelError):
            M.encode(rng.normal(size=(4, 7, 5)), pos, dta)


class TestHeads:
    def test_projection_output_width(self, tiny):
        dta, pos = tiny
        rng = np.random.default_rng(16)
        enc = M.encode(rand_de(rng, batch=3), pos, dta)
        z = M.project(enc.q_final, dta, train=False)
        assert z.shape == (3, TINY.proj_dims[-1])

    def test_projection_eval_deterministic_and_train_uses_batch_stats(self, tiny):
        dta, pos = tiny
        rng = np.random.default_rng(17)
        enc = M.encode(rand_de(rng, batch=4), pos, dta)
        a = M.project(enc.q_final, dta, train=False).data
        enc2 = M.encode(rand_de(np.random.default_rng(17), batch=4), pos, dta)
        b = M.project(enc2.q_final, dta, train=False).data
        assert np.array_equal(a, b)

    def test_eval_projection_ignores_batch_composition(self, tiny):
        dta, pos = tiny
        rng = np.random.default_rng(18)
        de = rand_de(rng, batch=4)
        full = M.project(M.encode(de, pos, dta).q_final,
                         dta, train=False).data
        solo = M.project(M.encode(de[:1], pos, dta).q_final,
                         dta, train=False).data
        assert np.allclose(full[0], solo[0], atol=1e-9)

    def test_train_projection_updates_running_stats(self, tiny):
        dta, pos = tiny
        work = dta.copy()
        rng = np.random.default_rng(19)
        before = work.bn_state["proj.bn1.mean"].copy()
        enc = M.encode(rand_de(rng, batch=4), pos, work, mask_diagonal=True)
        M.project(enc.q_final, work, train=True)
        assert not np.array_equal(before, work.bn_state["proj.bn1.mean"])

    def test_eval_projection_leaves_running_stats(self, tiny):
        dta, pos = tiny
        work = dta.copy()
        before = {k: v.copy() for k, v in work.bn_state.items()}
        enc = M.encode(rand_de(np.random.default_rng(24), batch=4), pos, work)
        M.project(enc.q_final, work, rng=np.random.default_rng(0))
        assert all(np.array_equal(v, work.bn_state[k]) for k, v in before.items())

    def test_projector_gradient(self, tiny):
        dta, pos = tiny
        dta = dta.copy()  # train-mode batch norm updates the running statistics
        rng = np.random.default_rng(20)
        de = rand_de(rng, batch=3)
        w = rng.normal(size=(3, TINY.proj_dims[-1]))

        def f():
            enc = M.encode(de, pos, dta)
            z = M.project(enc.q_final, dta, train=True)
            return ad.tsum(z * ad.Tensor(w))

        err = ad.grad_check(f, dta.params, names=dta.projector_names())
        assert err < 1e-4

    def test_classifier_shapes_and_uniform_at_zero(self, tiny):
        dta, pos = tiny
        rng = np.random.default_rng(21)
        enc = M.encode(rand_de(rng, batch=2), pos, dta)
        logits = M.classify(enc.q_final, dta)
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
    """A masked pretrain step with dropout on 5 samples per view: 3 workers
    cut the 10 encoder rows 3/3/4, and loss, z, every gradient and the
    dropout rng state come out byte for byte as with 1 or 2 workers."""
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
        z = M.project(enc.q_final, dta, train=True, rng=rng_dropout)
        loss = ls.contrastive_loss(ls.ContrastiveBatch(
            ad.narrow(z, 0, 5), ad.narrow(z, 5, 5), labels, labels))
        loss.backward()
        assert (ad._pool is not None) == (workers > 1)  # the split path ran
        runs.append((loss.data.tobytes(), z.data.tobytes(), rng_dropout.bit_generator.state,
                     {n: g.tobytes() for n, g in dta.params.gradients().items()}))
    assert runs[1] == runs[0]
    assert runs[2] == runs[0]
