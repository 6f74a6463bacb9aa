"""Bank/checkpoint persistence, split protocols, synthetic generation."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from eegtransfer import data_io as io
from eegtransfer import model as M
from eegtransfer import training as T
from eegtransfer.config import ModelConfig, SynthSpec
from eegtransfer.dsp import extract_de

SMALL = SynthSpec(n_subjects=2, n_classes=3, n_channels=8, trials_per_subject=3,
                  samples_per_trial=4, seed=11)


@pytest.fixture()
def small_bank():
    return io.gen_synthetic(SMALL)


class TestBankRoundTrip:
    def test_feature_bank_bitwise(self, small_bank, tmp_path):
        io.write_bank(small_bank, tmp_path / "bank")
        loaded = io.read_bank(tmp_path / "bank")
        assert io.bank_equal(small_bank, loaded)
        # and a second generation pass is bit-identical too
        assert io.bank_equal(small_bank, io.gen_synthetic(SMALL))

    def test_raw_bank_bitwise(self, tmp_path):
        spec = SynthSpec(n_subjects=1, n_classes=2, n_channels=4,
                         trials_per_subject=2, samples_per_trial=3, seed=5,
                         mode="timeseries")
        bank = io.gen_synthetic(spec)
        assert bank.raw_trials and not bank.samples
        io.write_bank(bank, tmp_path / "raw")
        loaded = io.read_bank(tmp_path / "raw")
        assert io.bank_equal(bank, loaded)
        again_dir = tmp_path / "again"
        io.write_bank(loaded, again_dir)
        assert io.bank_equal(loaded, io.read_bank(again_dir))

    def test_manifest_has_documented_keys(self, small_bank, tmp_path):
        io.write_bank(small_bank, tmp_path / "bank")
        manifest = json.loads((tmp_path / "bank" / "manifest.json").read_text())
        for key in ("format_version", "dataset", "classes", "bands",
                    "montage_file", "counts", "samples"):
            assert key in manifest
        assert manifest["format_version"] == 1
        assert manifest["counts"]["n_samples"] == len(small_bank.samples)

    def test_magic_bytes(self, small_bank, tmp_path):
        io.write_bank(small_bank, tmp_path / "bank")
        blob = (tmp_path / "bank" / "features.bin").read_bytes()
        assert blob[:8] == b"CLDTAFB1"

    def test_bad_magic_raises(self, small_bank, tmp_path):
        io.write_bank(small_bank, tmp_path / "bank")
        f = tmp_path / "bank" / "features.bin"
        blob = bytearray(f.read_bytes())
        blob[:8] = b"NOTMYFMT"
        f.write_bytes(bytes(blob))
        with pytest.raises(io.BadMagicError):
            io.read_bank(tmp_path / "bank")

    def test_truncated_payload_raises(self, small_bank, tmp_path):
        io.write_bank(small_bank, tmp_path / "bank")
        f = tmp_path / "bank" / "features.bin"
        blob = f.read_bytes()
        f.write_bytes(blob[:-1])  # one byte short
        with pytest.raises(io.TruncatedPayloadError):
            io.read_bank(tmp_path / "bank")

    def test_count_mismatch_raises(self, small_bank, tmp_path):
        io.write_bank(small_bank, tmp_path / "bank")
        f = tmp_path / "bank" / "features.bin"
        blob = f.read_bytes()
        record = 8 * 5 * 4
        f.write_bytes(blob[:-record])  # drop exactly one sample
        with pytest.raises(io.ManifestMismatchError):
            io.read_bank(tmp_path / "bank")

    @pytest.mark.parametrize("key", ["dataset", "classes", "bands", "counts.n_samples",
                                     "counts.n_channels", "counts.n_bands"])
    def test_missing_manifest_key_raises(self, small_bank, tmp_path, key):
        io.write_bank(small_bank, tmp_path / "bank")
        mpath = tmp_path / "bank" / "manifest.json"
        manifest = json.loads(mpath.read_text())
        *parents, leaf = key.split(".")
        section = manifest
        for part in parents:
            section = section[part]
        del section[leaf]
        mpath.write_text(json.dumps(manifest))
        with pytest.raises(io.ManifestMismatchError, match=repr(leaf)):
            io.read_bank(tmp_path / "bank")

    @pytest.mark.parametrize("key", ["file", "channels", "samples", "subject",
                                     "session", "trial", "label"])
    def test_missing_raw_trial_key_raises(self, tmp_path, key):
        spec = SynthSpec(n_subjects=1, n_classes=2, n_channels=4,
                         trials_per_subject=2, samples_per_trial=3, seed=5,
                         mode="timeseries")
        io.write_bank(io.gen_synthetic(spec), tmp_path / "raw")
        mpath = tmp_path / "raw" / "manifest.json"
        manifest = json.loads(mpath.read_text())
        del manifest["raw_trials"][1][key]
        mpath.write_text(json.dumps(manifest))
        with pytest.raises(io.ManifestMismatchError, match=rf"raw_trials\[1\].*{key!r}"):
            io.read_bank(tmp_path / "raw")

    def test_short_sample_row_raises(self, small_bank, tmp_path):
        io.write_bank(small_bank, tmp_path / "bank")
        mpath = tmp_path / "bank" / "manifest.json"
        manifest = json.loads(mpath.read_text())
        manifest["samples"][2] = manifest["samples"][2][:4]
        mpath.write_text(json.dumps(manifest))
        with pytest.raises(io.ManifestMismatchError, match="samples row 2"):
            io.read_bank(tmp_path / "bank")


def _corrupt_json(bank):
    (bank / "manifest.json").write_text('{"format_version": 1,', encoding="utf-8")


def _edit_manifest(edit):
    def apply(bank):
        mpath = bank / "manifest.json"
        manifest = json.loads(mpath.read_text())
        edit(manifest)
        mpath.write_text(json.dumps(manifest))
    return apply


def _nan_payload(bank):
    f = bank / "features.bin"
    blob = bytearray(f.read_bytes())
    at = 8 + (3 * 8 * 5 + 2) * 4  # sample 3 of the 8-channel, 5-band bank
    blob[at:at + 4] = np.float32(np.nan).tobytes()
    f.write_bytes(bytes(blob))


BANK_FAULTS = {
    "corrupt_json": (_corrupt_json, io.ManifestMismatchError,
                     r"manifest\.json: not valid JSON"),
    "samples_not_a_list": (_edit_manifest(lambda m: m.update(samples=4)),
                           io.ManifestMismatchError, "samples is int"),
    "dataset_not_a_string": (_edit_manifest(lambda m: m.update(dataset=5)),
                             io.ManifestMismatchError, "dataset is int"),
    "classes_not_a_list": (_edit_manifest(lambda m: m.update(classes=3)),
                           io.ManifestMismatchError, "classes is int"),
    "montage_file_not_a_string": (_edit_manifest(lambda m: m.update(montage_file=7)),
                                  io.ManifestMismatchError, "montage_file is int"),
    "raw_trials_not_a_list": (_edit_manifest(lambda m: m.update(raw_trials=3)),
                              io.ManifestMismatchError, "raw_trials is int"),
    "string_label": (_edit_manifest(lambda m: m["samples"][1].__setitem__(4, "1")),
                     io.ManifestMismatchError, "samples row 1"),
    "string_count": (_edit_manifest(lambda m: m["counts"].update(n_samples="24")),
                     io.ManifestMismatchError, "n_samples is '24'"),
    "nan_in_payload": (_nan_payload, io.NonFinitePayloadError,
                       r"features\.bin: sample 3"),
}


@pytest.mark.parametrize("fault", list(BANK_FAULTS))
def test_malformed_bank_raises_typed_error(small_bank, tmp_path, fault):
    corrupt, error, message = BANK_FAULTS[fault]
    io.write_bank(small_bank, tmp_path / "bank")
    corrupt(tmp_path / "bank")
    with pytest.raises(error, match=message) as exc:
        io.read_bank(tmp_path / "bank")
    assert isinstance(exc.value, io.BankError) and "\n" not in str(exc.value)


@pytest.mark.parametrize("key", ["channels", "samples", "subject", "session", "trial",
                                 "label"])
def test_non_integer_raw_trial_field_raises(tmp_path, key):
    spec = SynthSpec(n_subjects=1, n_classes=2, n_channels=4,
                     trials_per_subject=2, samples_per_trial=3, seed=5,
                     mode="timeseries")
    io.write_bank(io.gen_synthetic(spec), tmp_path / "raw")
    _edit_manifest(lambda m: m["raw_trials"][1].update({key: "1"}))(tmp_path / "raw")
    with pytest.raises(io.ManifestMismatchError, match=rf"raw_trials\[1\].*{key} is '1'"):
        io.read_bank(tmp_path / "raw")


def fail_nth_write(monkeypatch, n):
    """Make the n-th file write (from 0) write half its content, then raise."""
    count = [0]

    def hook(real):
        def write(self, data, *args, **kwargs):
            k, count[0] = count[0], count[0] + 1
            if k == n:
                real(self, data[:len(data) // 2], *args, **kwargs)
                raise OSError("injected: disk full")
            return real(self, data, *args, **kwargs)
        return write
    monkeypatch.setattr(Path, "write_bytes", hook(Path.write_bytes))
    monkeypatch.setattr(Path, "write_text", hook(Path.write_text))


def file_tree(directory):
    """Relative path -> bytes of every file under `directory`."""
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in Path(directory).rglob("*") if p.is_file()}


RAW_SPEC = SynthSpec(n_subjects=1, n_classes=2, n_channels=4, trials_per_subject=2,
                     samples_per_trial=3, seed=5, mode="timeseries")


# a timeseries bank writes montage, features, two raw trials, then the manifest
@pytest.mark.parametrize("fail_at", range(5))
def test_failed_bank_write_leaves_earlier_bank(tmp_path, monkeypatch, fail_at):
    directory = tmp_path / "bank"
    earlier = io.gen_synthetic(RAW_SPEC)
    io.write_bank(earlier, directory)
    before = file_tree(directory)
    newer = io.gen_synthetic(dataclasses.replace(RAW_SPEC, seed=6))
    with monkeypatch.context() as mp:
        fail_nth_write(mp, fail_at)
        with pytest.raises(OSError, match="injected"):
            io.write_bank(newer, directory)
    assert file_tree(directory) == before  # bit for bit, and no temp file left
    assert io.bank_equal(io.read_bank(directory), earlier)
    io.write_bank(newer, directory)
    assert set(file_tree(directory)) == set(before)
    assert io.bank_equal(io.read_bank(directory), newer)


def test_smaller_bank_overwrite_removes_stale_raw_files(tmp_path):
    directory = tmp_path / "bank"
    io.write_bank(io.gen_synthetic(dataclasses.replace(RAW_SPEC, trials_per_subject=3)),
                  directory)
    assert sorted(p.name for p in (directory / "raw").iterdir()) == ["t0.bin", "t1.bin",
                                                                      "t2.bin"]
    smaller = io.gen_synthetic(dataclasses.replace(RAW_SPEC, trials_per_subject=1))
    assert len(smaller.raw_trials) == 1
    io.write_bank(smaller, directory)
    assert [p.name for p in (directory / "raw").iterdir()] == ["t0.bin"]
    assert io.bank_equal(io.read_bank(directory), smaller)


def rewrite_header(path, edit):
    """Re-serialise a checkpoint after `edit(header)` changed its header."""
    blob = path.read_bytes()
    hlen = int.from_bytes(blob[8:12], "little")
    header = json.loads(blob[12:12 + hlen])
    edit(header)
    new = json.dumps(header).encode("utf-8")
    path.write_bytes(blob[:8] + len(new).to_bytes(4, "little") + new + blob[12 + hlen:])


class TestCheckpoints:
    def make_model(self):
        cfg = ModelConfig(n_layers=1, d_model=8, n_heads=2, ffn_hidden=8,
                          n_channels=8, n_bands=5, proj_dims=(8, 8, 8),
                          clf_hidden=(4, 4), n_classes=3)
        return cfg, M.init_parameters(cfg, seed=3)

    def test_round_trip_identical_forward(self, small_bank, tmp_path):
        cfg, dta = self.make_model()
        path = tmp_path / "model.ckpt"
        io.save_checkpoint(dta, path)
        loaded, opt = io.load_checkpoint(path)
        assert opt is None
        probe = np.stack([s.de for s in small_bank.samples[:4]]).astype(np.float64)
        a = M.encode(probe, small_bank.montage.positions, dta).q_final.data
        b = M.encode(probe, small_bank.montage.positions, loaded).q_final.data
        assert np.array_equal(a, b)

    def test_failed_save_leaves_earlier_checkpoint(self, tmp_path, monkeypatch):
        cfg, dta = self.make_model()
        path = tmp_path / "model.ckpt"
        io.save_checkpoint(dta, path)
        before = path.read_bytes()
        newer = M.init_parameters(cfg, seed=4)
        with monkeypatch.context() as mp:
            fail_nth_write(mp, 0)
            with pytest.raises(OSError, match="injected"):
                io.save_checkpoint(newer, path)
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]
        assert path.read_bytes() == before
        loaded, _ = io.load_checkpoint(path)
        for name, t in dta.params.items():
            assert loaded.params[name].data.tobytes() == t.data.tobytes()
        io.save_checkpoint(newer, path)
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]
        assert path.read_bytes() != before

    def test_optimizer_state_round_trip(self, tmp_path):
        cfg, dta = self.make_model()
        opt = T.AdamState(lr=1e-3, weight_decay=0.01)
        for name, t in dta.params.items():
            t.grad = np.ones_like(t.data)
        T.adam_step(dta.params, opt)
        path = tmp_path / "with_opt.ckpt"
        io.save_checkpoint(dta, path, optimizer=opt)
        _, opt2 = io.load_checkpoint(path)
        assert opt2.step == 1 and opt2.lr == 1e-3
        for name in opt.m:
            assert np.array_equal(opt.m[name], opt2.m[name])
            assert np.array_equal(opt.v[name], opt2.v[name])

    def test_config_mismatch_rejected(self, tmp_path):
        cfg, dta = self.make_model()
        path = tmp_path / "model.ckpt"
        io.save_checkpoint(dta, path)
        other = ModelConfig(n_layers=1, d_model=8, n_heads=2, ffn_hidden=8,
                            n_channels=16, n_bands=5, proj_dims=(8, 8, 8),
                            clf_hidden=(4, 4), n_classes=3)
        with pytest.raises(io.CheckpointError, match="config"):
            io.load_checkpoint(path, expected_config=other)

    def test_float32_cast_on_load(self, tmp_path):
        cfg, dta = self.make_model()
        path = tmp_path / "model.ckpt"
        io.save_checkpoint(dta, path)
        f32, _ = io.load_checkpoint(path, dtype=np.float32)
        assert f32.dtype == np.float32
        for name in dta.params.names():
            assert np.array_equal(
                f32.params[name].data,
                dta.params[name].data.astype(np.float32))

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"CLDTACK1" + b"\x00\x00\x00\x10" + b"notjson")
        with pytest.raises(io.CheckpointError):
            io.load_checkpoint(path)
        path.write_bytes(b"WRONGMAG" + b"\x00" * 32)
        with pytest.raises(io.CheckpointError, match="magic"):
            io.load_checkpoint(path)

    def test_trailing_payload_byte_rejected(self, tmp_path):
        cfg, dta = self.make_model()
        path = tmp_path / "model.ckpt"
        io.save_checkpoint(dta, path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(io.CheckpointError, match="1 trailing bytes"):
            io.load_checkpoint(path)

    @pytest.mark.parametrize("key", ["format_version", "model_config", "arrays"])
    def test_missing_header_key_rejected(self, tmp_path, key):
        cfg, dta = self.make_model()
        path = tmp_path / "model.ckpt"
        io.save_checkpoint(dta, path)
        rewrite_header(path, lambda h: h.pop(key))
        with pytest.raises(io.CheckpointError, match=repr(key)):
            io.load_checkpoint(path)

    @pytest.mark.parametrize("section,key", [("arrays", "shape"), ("optimizer", "step")])
    def test_missing_nested_header_key_rejected(self, tmp_path, section, key):
        cfg, dta = self.make_model()
        path = tmp_path / "model.ckpt"
        io.save_checkpoint(dta, path, optimizer=T.AdamState(lr=1e-3))

        def drop(header):
            part = header["arrays"][0] if section == "arrays" else header[section]
            del part[key]

        rewrite_header(path, drop)
        with pytest.raises(io.CheckpointError, match=repr(key)):
            io.load_checkpoint(path)

    def test_unknown_model_config_key_rejected(self, tmp_path):
        # checkpoints that carry the removed literal_diag_mask switch are
        # refused with the key named, not loaded with it silently dropped
        cfg, dta = self.make_model()
        path = tmp_path / "model.ckpt"
        io.save_checkpoint(dta, path)
        rewrite_header(path, lambda h: h["model_config"].update(literal_diag_mask=False))
        with pytest.raises(io.CheckpointError, match="literal_diag_mask") as err:
            io.load_checkpoint(path)
        assert "\n" not in str(err.value)

    def test_bad_model_config_value_rejected(self, tmp_path):
        cfg, dta = self.make_model()
        path = tmp_path / "model.ckpt"
        io.save_checkpoint(dta, path)
        rewrite_header(path, lambda h: h["model_config"].update(n_heads=3))
        with pytest.raises(io.CheckpointError, match="n_heads"):
            io.load_checkpoint(path)


class TestSplits:
    def seed_style_bank(self, trials=15):
        spec = SynthSpec(n_subjects=1, n_classes=3, n_channels=4,
                         trials_per_subject=trials, samples_per_trial=30, seed=2)
        return io.gen_synthetic(spec)

    def test_first9_last6_sample_counts(self):
        bank = self.seed_style_bank(15)
        train, test = io.apply_split(bank, io.get_protocol("first9-last6"))
        assert len(train.samples) == 270
        assert len(test.samples) == 180

    def test_ratio_80_20_trial_counts(self):
        bank = self.seed_style_bank(40)
        train, test = io.apply_split(bank, io.get_protocol("ratio80"))
        train_trials = {s.trial_id for s in train.samples}
        test_trials = {s.trial_id for s in test.samples}
        assert len(train_trials) == 32
        assert len(test_trials) == 8

    def test_split_partitions_bank(self):
        bank = self.seed_style_bank(15)
        train, test = io.apply_split(bank, io.get_protocol("first9-last6"))
        key = lambda s: (s.subject_id, s.session_id, s.trial_id, s.window_index)
        union = {key(s) for s in train.samples} | {key(s) for s in test.samples}
        assert union == {key(s) for s in bank.samples}
        assert not ({key(s) for s in train.samples} & {key(s) for s in test.samples})

    def test_overlapping_protocol_rejected(self):
        with pytest.raises(io.SplitError, match="overlap"):
            io.SplitProtocol("bad", (0, 1, 2), (2, 3))

    def test_protocol_wanting_missing_trial_rejected(self):
        bank = self.seed_style_bank(8)
        with pytest.raises(io.SplitError):
            io.apply_split(bank, io.get_protocol("first9-last6"))

    def test_unknown_protocol_name(self):
        with pytest.raises(io.SplitError, match="unknown"):
            io.get_protocol("nope")


class TestSynthetic:
    def test_sample_counting(self):
        spec = SynthSpec(n_subjects=5, n_classes=3, trials_per_subject=10,
                         samples_per_trial=30, n_channels=8, seed=1)
        bank = io.gen_synthetic(spec)
        assert len(bank.samples) == 5 * 10 * 30

    def test_same_seed_bit_identical(self):
        a = io.gen_synthetic(SMALL)
        b = io.gen_synthetic(SMALL)
        assert io.bank_equal(a, b)

    def test_class_means_recovered_from_samples(self):
        spec = SynthSpec(n_subjects=4, n_classes=3, n_channels=6,
                         trials_per_subject=9, samples_per_trial=40, seed=3)
        bank = io.gen_synthetic(spec)
        mu, delta, _ = io.synth_factors(spec)
        feats, labels = bank.feature_array()
        for c in range(3):
            got = feats[labels == c].mean(axis=0)
            # per-class mean converges to mu[c] + mean over subjects of delta
            want = mu[c] + delta.mean(axis=0)
            n = (labels == c).sum()
            tol = 3.0 * spec.sample_noise_std / np.sqrt(n) + 3.0 * 0.02
            assert np.abs(got - want).max() < tol + 0.2  # subject-shift sampling slack

    def test_between_class_separation_positive(self):
        bank = io.gen_synthetic(SMALL)
        feats, labels = bank.feature_array()
        means = np.stack([feats[labels == c].mean(axis=0) for c in range(3)])
        d01 = np.linalg.norm(means[0] - means[1])
        assert d01 > 0.5

    def test_timeseries_mode_recovers_separable_features(self):
        spec = SynthSpec(n_subjects=2, n_classes=2, n_channels=4,
                         trials_per_subject=4, samples_per_trial=6, seed=9,
                         mode="timeseries")
        bank = io.gen_synthetic(spec)
        feat_bank = io.extract_bank_features(bank, smooth=False)
        assert len(feat_bank.samples) == 2 * 4 * 6
        feats, labels = feat_bank.feature_array()
        mu, _, _ = io.synth_factors(spec)
        # class contrast of band log-amplitudes shows up in the features
        got = feats[labels == 0].mean(axis=0) - feats[labels == 1].mean(axis=0)
        want = mu[0] - mu[1]
        corr = np.corrcoef(got.ravel(), want.ravel())[0, 1]
        assert corr > 0.8

    def test_invalid_spec_rejected(self):
        with pytest.raises(Exception):
            SynthSpec(n_subjects=0)
        with pytest.raises(Exception):
            SynthSpec(mode="other")


def test_extract_bank_features_window_counts():
    spec = SynthSpec(n_subjects=1, n_classes=2, n_channels=4,
                     trials_per_subject=2, samples_per_trial=5, seed=4,
                     mode="timeseries")
    bank = io.gen_synthetic(spec)
    feat = io.extract_bank_features(bank, smooth=True)
    per_trial = {}
    for s in feat.samples:
        per_trial.setdefault(s.trial_id, []).append(s.window_index)
    for trial, windows in per_trial.items():
        assert windows == list(range(5))
